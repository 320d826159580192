// Declarative description of an N-lane bus scenario.
//
// A bus is a template LinkSpec stamped out across `lanes` lanes (each lane
// optionally patched by a per-lane override object), plus two N x N
// coupling matrices describing inter-lane crosstalk:
//
//   coupling[v][a]      — FEXT gain: aggressor `a`'s TX stream filtered
//                         through victim `v`'s channel model, scaled and
//                         added to `v`'s post-channel stream;
//   next_coupling[v][a] — NEXT gain: aggressor `a`'s TX stream injected
//                         directly (no channel) into `v`'s stream.
//
// Zero matrices (or absent ones) make the bus exactly N independent links:
// `Simulator::run_bus` then routes through the same batched path as
// `run_batch`, and the per-lane reports are byte-identical to standalone
// runs — a contract pinned by tier-1 tests.
#pragma once

#include <string>
#include <vector>

#include "api/link_spec.h"
#include "api/simulator.h"
#include "util/json.h"

namespace serdes::api {

struct BusSpec {
  /// Bus label; lane `i` runs as "<name>/lane<i>".
  std::string name = "bus";

  /// Number of lanes, 1..64.
  int lanes = 1;

  /// Template every lane starts from.  Its `name` is ignored (lane names
  /// derive from the bus name).
  LinkSpec base;

  /// Optional per-lane patches: either empty or exactly `lanes` JSON
  /// objects, each mapping LinkSpec fields (the `apply_link_field`
  /// vocabulary: top-level members, "channel", dotted channel members) to
  /// values.  "name" may not be overridden.
  std::vector<util::Json> overrides;

  /// FEXT gain matrix, `lanes` x `lanes` (empty = no FEXT).  Row = victim,
  /// column = aggressor; the diagonal should be zero (the linter's
  /// `self-coupling` rule flags violations, and the runner skips them).
  std::vector<std::vector<double>> coupling;

  /// NEXT gain matrix, same shape and conventions as `coupling`.
  std::vector<std::vector<double>> next_coupling;

  /// True when any off-diagonal coupling entry is nonzero — the bus needs
  /// the crosstalk-aware per-lane path instead of the lane-tiled one.
  [[nodiscard]] bool has_coupling() const;

  /// First problem found, or "" when runnable.  Covers lane count, matrix
  /// shapes, override shape/content, and per-expanded-lane LinkSpec
  /// validity.
  [[nodiscard]] std::string validate() const;
  void validate_or_throw() const;

  /// Stamps out the per-lane LinkSpecs: base + override, named
  /// "<name>/lane<i>".  Throws util::JsonError on malformed overrides.
  [[nodiscard]] std::vector<LinkSpec> expand() const;
};

/// Per-bus result: one RunReport per lane plus the coupling echo, under
/// the same schema-versioning contract as RunReport.
struct BusReport {
  /// See RunReport::schema_version; BusReport itself is a version-2
  /// addition.
  int schema_version = 2;
  std::string name;
  std::vector<RunReport> lanes;
  std::vector<std::vector<double>> coupling;
  std::vector<std::vector<double>> next_coupling;
};

[[nodiscard]] util::Json to_json(const BusSpec& spec);
[[nodiscard]] BusSpec bus_spec_from_json(const util::Json& json,
                                         const std::string& path = "$");
[[nodiscard]] util::Json to_json(const BusReport& report);
[[nodiscard]] BusReport bus_report_from_json(const util::Json& json,
                                             const std::string& path = "$");

/// True when a parsed JSON document looks like a BusSpec rather than a
/// LinkSpec or SweepSpec (it has a "lanes" or "base" member) — the CLI's
/// file-kind sniffer.
[[nodiscard]] bool looks_like_bus_spec(const util::Json& json);

}  // namespace serdes::api
