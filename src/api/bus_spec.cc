#include "api/bus_spec.h"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/spec_json.h"
#include "util/strings.h"

namespace serdes::api {

using util::Json;

bool BusSpec::has_coupling() const {
  const auto any_nonzero = [this](const std::vector<std::vector<double>>& m) {
    for (std::size_t v = 0; v < m.size(); ++v) {
      for (std::size_t a = 0; a < m[v].size(); ++a) {
        if (v != a && m[v][a] != 0.0) return true;
      }
    }
    return false;
  };
  return any_nonzero(coupling) || any_nonzero(next_coupling);
}

namespace {

std::string check_matrix_shape(const std::vector<std::vector<double>>& m,
                               const std::string& key, int lanes) {
  if (m.empty()) return {};
  const auto n = static_cast<std::size_t>(lanes);
  if (m.size() != n) {
    return "$." + key + ": must be a " + std::to_string(lanes) + "x" +
           std::to_string(lanes) + " matrix (one row per lane)";
  }
  for (std::size_t v = 0; v < m.size(); ++v) {
    if (m[v].size() != n) {
      return "$." + key + "[" + std::to_string(v) + "]: must have " +
             std::to_string(lanes) + " entries (one per aggressor lane)";
    }
  }
  return {};
}

}  // namespace

std::string BusSpec::validate() const {
  if (lanes < 1 || lanes > 64) {
    return "$.lanes: must be between 1 and 64";
  }
  if (!overrides.empty() &&
      overrides.size() != static_cast<std::size_t>(lanes)) {
    return "$.overrides: must have exactly one entry per lane (" +
           std::to_string(lanes) + ")";
  }
  if (auto err = check_matrix_shape(coupling, "coupling", lanes);
      !err.empty()) {
    return err;
  }
  if (auto err = check_matrix_shape(next_coupling, "next_coupling", lanes);
      !err.empty()) {
    return err;
  }
  std::vector<LinkSpec> lane_specs;
  try {
    lane_specs = expand();
  } catch (const util::JsonError& e) {
    return e.what();
  }
  for (std::size_t i = 0; i < lane_specs.size(); ++i) {
    if (auto err = lane_specs[i].validate(); !err.empty()) {
      return "lane " + std::to_string(i) + ": " + err;
    }
  }
  return {};
}

void BusSpec::validate_or_throw() const {
  if (auto err = validate(); !err.empty()) {
    throw std::invalid_argument("BusSpec '" + name + "': " + err);
  }
}

std::vector<LinkSpec> BusSpec::expand() const {
  std::vector<LinkSpec> out;
  out.reserve(static_cast<std::size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    LinkSpec lane = base;
    if (!overrides.empty()) {
      const Json& o = overrides[static_cast<std::size_t>(i)];
      const std::string path = "$.overrides[" + std::to_string(i) + "]";
      if (!o.is_object()) util::fail_at(path, "expected object");
      for (const auto& [key, value] : o.as_object()) {
        if (key == "name") {
          util::fail_at(path + ".name",
                        "lane names derive from the bus name and may not be "
                        "overridden");
        }
        apply_link_field(lane, key, value, path + "." + key);
      }
    }
    lane.name = name + "/lane" + std::to_string(i);
    out.push_back(std::move(lane));
  }
  return out;
}

// ---- JSON -------------------------------------------------------------------

namespace {

const std::vector<std::string> kBusFields = {
    "name", "lanes", "base", "overrides", "coupling", "next_coupling"};

Json matrix_to_json(const std::vector<std::vector<double>>& m) {
  Json rows = Json::array();
  for (const std::vector<double>& row : m) {
    Json r = Json::array();
    for (const double v : row) r.push_back(Json(v));
    rows.push_back(std::move(r));
  }
  return rows;
}

std::vector<std::vector<double>> matrix_from_json(const Json& j,
                                                  const std::string& path) {
  if (!j.is_array()) util::fail_at(path, "expected array of number arrays");
  std::vector<std::vector<double>> m;
  m.reserve(j.as_array().size());
  for (std::size_t v = 0; v < j.as_array().size(); ++v) {
    const Json& row = j.as_array()[v];
    const std::string row_path = path + "[" + std::to_string(v) + "]";
    if (!row.is_array()) util::fail_at(row_path, "expected array of numbers");
    std::vector<double> out_row;
    out_row.reserve(row.as_array().size());
    for (std::size_t a = 0; a < row.as_array().size(); ++a) {
      out_row.push_back(util::get_double(
          row.as_array()[a], row_path + "[" + std::to_string(a) + "]"));
    }
    m.push_back(std::move(out_row));
  }
  return m;
}

}  // namespace

Json to_json(const BusSpec& spec) {
  Json j = Json::object();
  j.set("name", spec.name);
  j.set("lanes", spec.lanes);
  j.set("base", to_json(spec.base));
  if (!spec.overrides.empty()) {
    Json arr = Json::array();
    for (const Json& o : spec.overrides) arr.push_back(o);
    j.set("overrides", std::move(arr));
  }
  if (!spec.coupling.empty()) j.set("coupling", matrix_to_json(spec.coupling));
  if (!spec.next_coupling.empty()) {
    j.set("next_coupling", matrix_to_json(spec.next_coupling));
  }
  return j;
}

BusSpec bus_spec_from_json(const Json& json, const std::string& path) {
  if (!json.is_object()) util::fail_at(path, "expected object");
  BusSpec spec;
  bool saw_lanes = false;
  for (const auto& [key, value] : json.as_object()) {
    const std::string p = path + "." + key;
    if (key == "name") {
      spec.name = util::get_string(value, p);
    } else if (key == "lanes") {
      const std::int64_t v = util::get_int(value, p);
      if (v < 1 || v > 64) util::fail_at(p, "must be between 1 and 64");
      spec.lanes = static_cast<int>(v);
      saw_lanes = true;
    } else if (key == "base") {
      spec.base = link_spec_from_json(value, p);
    } else if (key == "overrides") {
      if (!value.is_array()) util::fail_at(p, "expected array of objects");
      spec.overrides.assign(value.as_array().begin(), value.as_array().end());
    } else if (key == "coupling") {
      spec.coupling = matrix_from_json(value, p);
    } else if (key == "next_coupling") {
      spec.next_coupling = matrix_from_json(value, p);
    } else {
      std::string message = "unknown BusSpec field '" + key + "'";
      if (const std::string hint = util::closest_match(key, kBusFields);
          !hint.empty()) {
        message += " — did you mean '" + hint + "'?";
      }
      util::fail_at(p, message);
    }
  }
  if (!saw_lanes) util::fail_at(path, "missing required field 'lanes'");
  return spec;
}

Json to_json(const BusReport& report) {
  Json j = Json::object();
  j.set("schema_version", report.schema_version);
  j.set("name", report.name);
  Json lanes = Json::array();
  for (const RunReport& lane : report.lanes) lanes.push_back(to_json(lane));
  j.set("lanes", std::move(lanes));
  if (!report.coupling.empty()) {
    j.set("coupling", matrix_to_json(report.coupling));
  }
  if (!report.next_coupling.empty()) {
    j.set("next_coupling", matrix_to_json(report.next_coupling));
  }
  return j;
}

BusReport bus_report_from_json(const Json& json, const std::string& path) {
  if (!json.is_object()) util::fail_at(path, "expected object");
  BusReport report;
  report.schema_version = 1;  // absent means version 1
  for (const auto& [key, value] : json.as_object()) {
    const std::string p = path + "." + key;
    if (key == "schema_version") {
      report.schema_version = static_cast<int>(util::get_int(value, p));
    } else if (key == "name") {
      report.name = util::get_string(value, p);
    } else if (key == "lanes") {
      if (!value.is_array()) util::fail_at(p, "expected array of reports");
      for (std::size_t i = 0; i < value.as_array().size(); ++i) {
        report.lanes.push_back(run_report_from_json(
            value.as_array()[i], p + "[" + std::to_string(i) + "]"));
      }
    } else if (key == "coupling") {
      report.coupling = matrix_from_json(value, p);
    } else if (key == "next_coupling") {
      report.next_coupling = matrix_from_json(value, p);
    } else {
      util::fail_at(p, "unknown BusReport field '" + key + "'");
    }
  }
  return report;
}

bool looks_like_bus_spec(const Json& json) {
  return json.is_object() &&
         (json.find("lanes") != nullptr || json.find("base") != nullptr);
}

}  // namespace serdes::api
