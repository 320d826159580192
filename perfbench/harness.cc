// serdes_perfbench — seeded, single-process end-to-end benchmark harness.
//
// One closed-loop client sends one request at a time to the library's
// public entry points (Simulator::run / run_lane_tile / run_bus,
// opt::optimize, store-backed sweeps) and checks every report it gets
// back.  A workload is a fixed mix of generated requests; the seed only
// perturbs spec parameters and noise seeds, so every seed costs about the
// same.  perfbench/run.py builds this binary and drives it; see
// perfbench/README.md for the workloads, metrics and checks.
//
//   serdes_perfbench --workload link_mc --seed 1 --seconds 20 --trace 0
//                    --repo . --work-dir .bench_build/work
//                    [--dump-specs DIR]
//
// --trace 0 measures the untraced program and prints the end-to-end
// metrics; --trace 1 runs every request twice (untraced, then recomposed
// from the public layer functions with a span around each layer call),
// byte-compares the two reports and prints the per-layer metrics.  The
// last stdout line is one JSON object: correct / attempted / failed /
// metrics.  Progress and informational lines go to stderr.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/bus_spec.h"
#include "api/channel_factory.h"
#include "api/simulator.h"
#include "api/spec_json.h"
#include "core/ber.h"
#include "core/eq_training.h"
#include "core/eye.h"
#include "core/lane_link.h"
#include "core/link.h"
#include "lint/lint.h"
#include "opt/optimizer.h"
#include "stat/stat_engine.h"
#include "sweep/result_store.h"
#include "sweep/sweep_runner.h"
#include "sweep/sweep_spec.h"
#include "util/fs.h"
#include "util/json.h"
#include "util/units.h"

namespace {

namespace fs = std::filesystem;
using serdes::util::Json;
namespace api = serdes::api;
namespace core = serdes::core;
namespace opt = serdes::opt;
namespace stat = serdes::stat;
namespace sweep = serdes::sweep;
namespace lint = serdes::lint;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- config --

/// Lanes per SoA lane tile in link_mc (`serdes_cli run --lanes 8`).
constexpr int kTileLanes = 8;
/// Lanes of the crosstalk bus in link_mc.
constexpr int kBusLanes = 4;
/// Fixed SweepRunner worker count in sweep_store.
constexpr int kSweepWorkers = 2;
/// Thread count of the 1-vs-N determinism check (a 4-core host's nproc).
constexpr int kCheckThreads = 4;
/// The measured loop runs whole passes until --seconds have elapsed and
/// at least this many requests have been sent, so more than ten latency
/// samples lie beyond p90.
constexpr std::size_t kMinLatencySamples = 120;
/// Set-up samples before the first pass; one more follows every pass.
constexpr int kSetupBlocks = 9;
/// One set-up sample repeats the pass's set-up for at least this long and
/// takes the mean per pass, so a sample sits well above timer noise.
constexpr double kSetupBlockS = 0.02;

// ------------------------------------------------------------------ rng --

/// splitmix64: the workload generator's only entropy source, so a seed
/// yields the same requests on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// -------------------------------------------------------- spec documents --

Json channel_flat(double loss_db) {
  Json c = Json::object();
  c.set("kind", "flat");
  c.set("loss_db", loss_db);
  return c;
}

Json channel_rc(double pole_hz, double loss_db) {
  Json c = Json::object();
  c.set("kind", "rc");
  c.set("pole_hz", pole_hz);
  c.set("loss_db", loss_db);
  return c;
}

Json channel_lossy(double loss_db, double skin_db, double dielectric_db) {
  Json c = Json::object();
  c.set("kind", "lossy_line");
  c.set("loss_db", loss_db);
  c.set("skin_loss_db_at_1ghz", skin_db);
  c.set("dielectric_loss_db_at_1ghz", dielectric_db);
  return c;
}

Json channel_fir(std::vector<double> taps) {
  Json c = Json::object();
  c.set("kind", "fir");
  Json arr = Json::array();
  for (const double t : taps) arr.push_back(t);
  c.set("fir_taps", std::move(arr));
  return c;
}

Json channel_composite(std::vector<Json> stages) {
  Json c = Json::object();
  c.set("kind", "composite");
  Json arr = Json::array();
  for (Json& s : stages) arr.push_back(std::move(s));
  c.set("stages", std::move(arr));
  return c;
}

Json doubles(const std::vector<double>& values) {
  Json arr = Json::array();
  for (const double v : values) arr.push_back(v);
  return arr;
}

/// A LinkSpec document with the fields every generated request sets;
/// finish() fills in the name and seed.
Json link_doc(Json channel, std::uint64_t payload_bits,
              std::uint64_t chunk_bits) {
  Json s = Json::object();
  s.set("name", "");
  s.set("channel", std::move(channel));
  s.set("payload_bits", payload_bits);
  s.set("chunk_bits", chunk_bits);
  s.set("seed", 0);
  return s;
}

// -------------------------------------------------------------- requests --

enum class Kind { kRun, kTile, kBus, kOptimize, kSweep };

/// One request as the client sends it: a spec document plus the command
/// it goes to (the serdes_cli line that replays it is in replay_command).
struct RequestDoc {
  Kind kind = Kind::kRun;
  std::string label;
  Json doc;
};

/// A request after set-up: parsed, validated and linted.
struct Request {
  Kind kind = Kind::kRun;
  std::string label;
  api::LinkSpec link;
  std::vector<api::LinkSpec> tile;  ///< kTile: per-lane specs, derived seeds
  api::BusSpec bus;
  sweep::SweepSpec sweep;
};

std::string replay_command(Kind kind, const std::string& file) {
  switch (kind) {
    case Kind::kRun: return "serdes_cli run " + file;
    case Kind::kTile:
      return "serdes_cli run " + file + " --lanes " +
             std::to_string(kTileLanes);
    case Kind::kBus: return "serdes_cli run " + file + " --threads 1";
    case Kind::kOptimize: return "serdes_cli optimize " + file;
    case Kind::kSweep:
      return "serdes_cli sweep " + file + " --threads " +
             std::to_string(kSweepWorkers) + " --store DIR";
  }
  return "";
}

/// Seeds every spec, shuffles the pass order and names the requests.
/// The seed moves noise realizations and order only: channel, noise and
/// payload parameters are fixed per request slot, so every seed offers
/// the same amount of work.
std::vector<RequestDoc> finish(std::vector<RequestDoc> docs,
                               const std::string& prefix, Rng& rng) {
  for (std::size_t i = docs.size(); i > 1; --i) {
    std::swap(docs[i - 1], docs[rng.next() % i]);
  }
  for (std::size_t i = 0; i < docs.size(); ++i) {
    Json& doc = docs[i].doc;
    if (const Json* base = doc.find("base")) {  // bus and sweep templates
      Json seeded = *base;
      seeded.set("seed", rng.next());
      doc.set("base", std::move(seeded));
    } else {
      doc.set("seed", rng.next());
    }
    doc.set("name", prefix + std::to_string(i) + "_" + docs[i].label);
  }
  return docs;
}

/// link_mc: MC-only traffic with deep payloads over every channel kind.
/// Payloads are sized so each request costs roughly the same host time.
std::vector<RequestDoc> gen_link_mc(std::uint64_t seed) {
  std::vector<RequestDoc> docs;
  const auto add = [&](Kind kind, const std::string& label, Json doc) {
    docs.push_back(RequestDoc{kind, label, std::move(doc)});
  };
  const auto nrz = [](Json channel, std::uint64_t payload) {
    Json d = link_doc(std::move(channel), payload, 8192);
    d.set("noise_rms_v", 0.001);
    return d;
  };
  const auto tile = [&](Json channel) {
    Json d = nrz(std::move(channel), 8192);
    d.set("lane_batch", kTileLanes);
    return d;
  };
  const auto pam4 = [] {
    Json d = link_doc(channel_flat(4.0), 98304, 8192);
    d.set("modulation", "pam4");
    d.set("noise_rms_v", 0.005);
    return d;
  };
  const auto dfe_fixed = [&] {
    Json d = nrz(channel_lossy(8.0, 12.0, 4.0), 40960);
    d.set("dfe_taps", doubles({0.03, 0.01}));
    return d;
  };
  const auto trained = [&] {
    Json d = nrz(channel_lossy(8.0, 12.0, 4.0), 16384);
    d.set("eq", "trained");
    d.set("training_uis", 4096);
    return d;
  };
  const auto bus = [] {
    Json base = link_doc(channel_flat(4.0), 16384, 8192);
    base.set("modulation", "pam4");
    base.set("noise_rms_v", 0.005);
    // Nearest-neighbour FEXT and NEXT.
    Json coupling = Json::array();
    Json next_coupling = Json::array();
    for (int v = 0; v < kBusLanes; ++v) {
      std::vector<double> fext(kBusLanes, 0.0);
      std::vector<double> next(kBusLanes, 0.0);
      for (const int a : {v - 1, v + 1}) {
        if (a < 0 || a >= kBusLanes) continue;
        fext[static_cast<std::size_t>(a)] = 0.03;
        next[static_cast<std::size_t>(a)] = 0.01;
      }
      coupling.push_back(doubles(fext));
      next_coupling.push_back(doubles(next));
    }
    Json d = Json::object();
    d.set("name", "");
    d.set("lanes", kBusLanes);
    d.set("base", std::move(base));
    d.set("coupling", std::move(coupling));
    d.set("next_coupling", std::move(next_coupling));
    return d;
  };

  add(Kind::kRun, "nrz_flat", nrz(channel_flat(32.0), 49152));
  add(Kind::kRun, "nrz_rc", nrz(channel_rc(2.0e9, 6.0), 49152));
  add(Kind::kRun, "nrz_lossy", nrz(channel_lossy(9.0, 6.0, 4.0), 40960));
  add(Kind::kRun, "nrz_fir", nrz(channel_fir({0.25, 0.09, 0.03}), 49152));
  add(Kind::kRun, "nrz_composite",
      nrz(channel_composite({channel_flat(12.0),
                             channel_fir({1.0, 0.35, 0.12})}),
          49152));
  add(Kind::kTile, "tile8_flat", tile(channel_flat(32.0)));
  add(Kind::kTile, "tile8_lossy", tile(channel_lossy(9.0, 6.0, 4.0)));
  add(Kind::kRun, "pam4_flat", pam4());
  add(Kind::kRun, "pam4_flat", pam4());
  add(Kind::kRun, "dfe_fixed", dfe_fixed());
  add(Kind::kRun, "dfe_fixed", dfe_fixed());
  add(Kind::kRun, "dfe_trained", trained());
  add(Kind::kRun, "dfe_trained", trained());
  add(Kind::kBus, "bus4_pam4_xtalk", bus());
  Rng rng(seed ^ 0x6c696e6b5f6d6331ull);
  return finish(std::move(docs), "mc", rng);
}

/// link_stat: stat-engine analyses and optimizer calls.
std::vector<RequestDoc> gen_link_stat(std::uint64_t seed) {
  std::vector<RequestDoc> docs;
  const auto add = [&](Kind kind, const std::string& label, Json doc) {
    docs.push_back(RequestDoc{kind, label, std::move(doc)});
  };
  const auto stat_doc = [](Json channel, double noise) {
    Json d = link_doc(std::move(channel), 4096, 4096);
    d.set("analysis", "stat");
    d.set("noise_rms_v", noise);
    return d;
  };
  const auto pam4 = [&] {
    Json d = stat_doc(channel_flat(4.0), 0.005);
    d.set("modulation", "pam4");
    return d;
  };
  const auto dfe = [&] {
    Json d = stat_doc(channel_lossy(8.0, 12.0, 4.0), 0.002);
    d.set("dfe_taps", doubles({0.03, 0.01}));
    return d;
  };
  // Noisy enough that the baseline misses 1e-15, so the descent runs all
  // its passes before the 65536-bit MC cross-check of the winner.
  const auto optimize = [] {
    Json d = link_doc(channel_flat(34.0), 4096, 4096);
    d.set("noise_rms_v", 0.006);
    return d;
  };

  for (int i = 0; i < 2; ++i) {
    add(Kind::kRun, "stat_flat", stat_doc(channel_flat(32.0), 0.002));
    add(Kind::kRun, "stat_rc", stat_doc(channel_rc(2.0e9, 6.0), 0.002));
    add(Kind::kRun, "stat_pam4", pam4());
    add(Kind::kRun, "stat_dfe", dfe());
  }
  for (int i = 0; i < 3; ++i) {
    // Long post-cursor tail: 13 ISI cursors, one more than exact
    // enumeration takes, so the engine builds the mixture on its grid.
    add(Kind::kRun, "stat_lossy_grid",
        stat_doc(channel_lossy(8.0, 12.0, 4.0), 0.002));
    add(Kind::kOptimize, "opt_flat", optimize());
  }
  Rng rng(seed ^ 0x6c696e6b5f737461ull);
  return finish(std::move(docs), "st", rng);
}

/// sweep_store: sweeps of short "both"-mode cells over mixed channels.
/// Five sweeps of 8 cells and one of 16, so the slow sixth of the pass
/// sets latency_p90_ms rather than the noise tail of identical requests.
std::vector<RequestDoc> gen_sweep_store(std::uint64_t seed) {
  constexpr int kSweeps = 6;
  const auto axis = [](const char* field, Json values) {
    Json a = Json::object();
    a.set("field", field);
    a.set("values", std::move(values));
    return a;
  };
  std::vector<RequestDoc> docs;
  for (int k = 0; k < kSweeps; ++k) {
    const bool wide = k == 0;
    Json base = link_doc(channel_flat(30.0), 2048, 2048);
    base.set("analysis", "both");
    base.set("noise_rms_v", 0.002);
    Json channels = Json::array();
    channels.push_back(channel_flat(30.0));
    channels.push_back(channel_rc(2.0e9, 6.0));
    channels.push_back(channel_lossy(4.0, 3.0, 2.0));
    channels.push_back(channel_composite(
        {channel_flat(12.0), channel_fir({1.0, 0.35, 0.12})}));
    Json axes = Json::array();
    axes.push_back(axis("channel", std::move(channels)));
    axes.push_back(axis("rx_ctle_boost_db", doubles({0.0, 3.0})));
    if (wide) axes.push_back(axis("noise_rms_v", doubles({0.002, 0.003})));
    Json doc = Json::object();
    doc.set("name", "");
    doc.set("base", std::move(base));
    doc.set("axes", std::move(axes));
    docs.push_back(RequestDoc{Kind::kSweep, wide ? "sweep16_both" : "sweep8_both",
                              std::move(doc)});
  }
  Rng rng(seed ^ 0x73776565705f7374ull);
  return finish(std::move(docs), "sw", rng);
}

std::vector<RequestDoc> generate(const std::string& workload,
                                 std::uint64_t seed) {
  if (workload == "link_mc") return gen_link_mc(seed);
  if (workload == "link_stat") return gen_link_stat(seed);
  if (workload == "sweep_store") return gen_sweep_store(seed);
  throw std::invalid_argument("unknown workload '" + workload +
                              "' (link_mc | link_stat | sweep_store)");
}

// ----------------------------------------------------------------- trace --

/// Per-layer accounting for the traced run.  Spans nest on the calling
/// thread: a span's self time is its duration minus its child spans', so
/// the self times of one request add up to at most its wall time.
class Trace {
 public:
  class Span {
   public:
    Span(Trace* trace, const char* name) : trace_(trace), name_(name) {
      if (trace_ == nullptr) return;
      trace_->child_.push_back(0.0);
      t0_ = Clock::now();
    }
    ~Span() {
      if (trace_ == nullptr) return;
      const double dt = seconds_since(t0_);
      const double children = trace_->child_.back();
      trace_->child_.pop_back();
      trace_->seconds[name_] += dt - children;
      if (!trace_->child_.empty()) trace_->child_.back() += dt;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Trace* trace_;
    const char* name_;
    Clock::time_point t0_{};
  };

  void count(const char* name, double n = 1.0) { counts[name] += n; }

  std::map<std::string, double> seconds;  ///< self time per span name
  std::map<std::string, double> counts;

 private:
  std::vector<double> child_;
};

// ------------------------------------------------------------- execution --

/// Everything one request produced: the report document as the CLI would
/// print it, the structured reports for the output checks, and work
/// counts for the throughput metrics.
struct Outcome {
  std::string text;
  std::vector<api::RunReport> runs;
  std::optional<api::BusReport> bus;
  std::optional<opt::OptimizeReport> optimize;
  std::optional<sweep::SweepReport> cold;
  sweep::StoreRunStats cold_stats;
  sweep::StoreRunStats warm_stats;
  std::string warm_text;
  std::uint64_t sim_bits = 0;
  std::uint64_t stat_evals = 0;
  std::uint64_t xchecks = 0;
  std::uint64_t xcheck_agree = 0;
};

/// Builds a report's JSON with `to_json` and dumps it as serdes_cli
/// prints it; the report.json span covers both.
template <typename ToJson>
std::string render(const ToJson& to_json, Trace* trace) {
  const Trace::Span span(trace, "report.json");
  std::string text = to_json().dump(2);
  text += "\n";
  if (trace != nullptr) trace->count("report.bytes", text.size());
  return text;
}

/// Simulator::run recomposed from the public layer functions, in the
/// order run() calls them, with a span around each.
api::RunReport compose_run(const api::LinkSpec& spec,
                           const api::Simulator::Options& o, Trace& trace) {
  api::RunReport report;
  report.spec = spec;
  report.confidence_level = o.confidence_level;
  const auto& factory = api::ChannelFactory::instance();

  core::LinkConfig cfg;
  {
    const Trace::Span span(&trace, "api.lower");
    cfg = spec.to_link_config();
  }
  if (spec.eq == "trained") {
    std::unique_ptr<serdes::channel::Channel> channel;
    {
      const Trace::Span span(&trace, "api.lower");
      channel = factory.create(spec.channel, cfg);
    }
    const Trace::Span span(&trace, "core.train");
    trace.count("core.train_calls");
    const std::size_t n_taps =
        spec.dfe_taps.empty() ? 3 : spec.dfe_taps.size();
    core::TrainingResult trained =
        core::train_equalizer(cfg, *channel, spec.training_uis, n_taps);
    cfg.dfe_taps = trained.dfe_taps;
    cfg.tx_ffe_deemphasis = trained.tx_ffe_deemphasis;
    cfg.rx_ctle_boost = serdes::util::decibels(trained.rx_ctle_boost_db);
    report.training = std::move(trained);
  }

  const bool want_stat = spec.analysis == "stat" || spec.analysis == "both";
  if (want_stat) {
    std::unique_ptr<serdes::channel::Channel> channel;
    {
      const Trace::Span span(&trace, "api.lower");
      channel = factory.create(spec.channel, cfg);
    }
    const Trace::Span span(&trace, "stat.analyze");
    trace.count("stat.analyze_calls");
    stat::StatAnalyzer::Options stat_options;
    stat_options.phase_bins_per_ui = o.stat_phase_bins_per_ui;
    stat_options.target_ber = spec.stat_target_ber;
    report.stat = stat::StatAnalyzer(stat_options).analyze(cfg, *channel);
    if (spec.analysis == "stat") return report;
  }

  cfg.capture_waveforms = true;
  cfg.capture_max_samples = static_cast<std::size_t>(
      o.diagnostic_window_uis * static_cast<std::uint64_t>(cfg.samples_per_ui));
  std::unique_ptr<serdes::channel::Channel> channel;
  {
    const Trace::Span span(&trace, "api.lower");
    channel = factory.create(spec.channel, cfg);
  }
  const Trace::Span mc_span(&trace, "core.mc");
  core::SerDesLink link(cfg, std::move(channel));
  bool first_chunk = true;
  const core::BerMeasurement m = core::measure_ber(
      link, spec.payload_bits, spec.chunk_bits, o.confidence_level,
      spec.prbs_order, [&](const core::LinkResult& r) {
        if (!first_chunk) return;
        first_chunk = false;
        const Trace::Span span(&trace, "core.eye");
        report.cdr_decision_phase = r.rx.cdr_decision_phase;
        report.cdr_phase_updates = r.rx.cdr_phase_updates;
        report.rx_swing_pp = r.rx_swing_pp;
        report.decision_threshold = r.decision_threshold;
        const core::EyeAnalyzer eye(
            serdes::util::hertz(cfg.bit_rate.value() /
                                static_cast<double>(cfg.bits_per_ui())),
            o.eye_bins_per_ui);
        report.eye = eye.analyze(r.rx.restored, report.decision_threshold);
        link.set_capture_waveforms(false);
      });
  trace.count("core.mc_bits", static_cast<double>(m.bits));
  report.aligned = m.aligned;
  report.bits = m.bits;
  report.errors = m.errors;
  report.ber = m.ber;
  report.ber_upper_bound = m.ber_upper_bound;

  if (want_stat) {
    const Trace::Span span(&trace, "stat.analyze");
    stat::StatAnalyzer::cross_check(*report.stat, report.bits, report.errors,
                                    spec.cdr_oversampling,
                                    spec.cdr_glitch_filter_radius,
                                    o.stat_cross_check_slack);
  }
  return report;
}

/// Simulator::run_lane_tile recomposed from the public layer functions.
std::vector<api::RunReport> compose_tile(
    const std::vector<api::LinkSpec>& lanes, const api::Simulator::Options& o,
    Trace& trace) {
  const api::LinkSpec& base = lanes.front();
  core::LinkConfig cfg;
  std::unique_ptr<serdes::channel::Channel> channel;
  std::vector<std::uint64_t> seeds;
  {
    const Trace::Span span(&trace, "api.lower");
    for (const api::LinkSpec& spec : lanes) spec.validate_or_throw();
    const std::string key = api::Simulator::tile_key(base);
    for (const api::LinkSpec& spec : lanes) {
      if (api::Simulator::tile_key(spec) != key) {
        throw std::invalid_argument("tile lanes differ beyond name and seed");
      }
      seeds.push_back(spec.seed);
    }
    cfg = base.to_link_config();
    cfg.capture_waveforms = true;
    cfg.capture_max_samples = static_cast<std::size_t>(
        o.diagnostic_window_uis *
        static_cast<std::uint64_t>(cfg.samples_per_ui));
    channel = api::ChannelFactory::instance().create(base.channel, cfg);
  }
  std::vector<core::LaneOutcome> outcomes;
  double threshold = 0.0;
  {
    const Trace::Span span(&trace, "core.lane_tile");
    core::LaneLink link(cfg, std::move(channel), std::move(seeds));
    outcomes = link.measure(base.payload_bits, base.chunk_bits,
                            o.confidence_level, base.prbs_order);
    threshold = link.receiver().decision_threshold();
  }
  std::vector<api::RunReport> reports(lanes.size());
  const Trace::Span span(&trace, "core.eye");
  const core::EyeAnalyzer eye(cfg.bit_rate, o.eye_bins_per_ui);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const core::LaneOutcome& lo = outcomes[i];
    api::RunReport& report = reports[i];
    report.spec = lanes[i];
    report.confidence_level = o.confidence_level;
    report.cdr_decision_phase = lo.cdr_decision_phase;
    report.cdr_phase_updates = lo.cdr_phase_updates;
    report.rx_swing_pp = lo.rx_swing_pp;
    report.decision_threshold = threshold;
    report.eye = eye.analyze(lo.restored, threshold);
    report.aligned = lo.measurement.aligned;
    report.bits = lo.measurement.bits;
    report.errors = lo.measurement.errors;
    report.ber = lo.measurement.ber;
    report.ber_upper_bound = lo.measurement.ber_upper_bound;
    trace.count("core.lane_tile_lane_bits",
                static_cast<double>(report.bits));
  }
  return reports;
}

Json reports_json(const std::vector<api::RunReport>& reports) {
  Json arr = Json::array();
  for (const auto& r : reports) arr.push_back(api::to_json(r));
  return arr;
}

std::uint64_t journal_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// Executes one request.  `trace == nullptr` calls the public entry
/// point directly (the measured program); otherwise the request is
/// recomposed from its layers with a span around each call.
Outcome execute(const Request& req, const api::Simulator& sim,
                const std::string& store_dir, Trace* trace) {
  Outcome out;
  switch (req.kind) {
    case Kind::kRun: {
      out.runs.push_back(trace == nullptr
                             ? sim.run(req.link)
                             : compose_run(req.link, sim.options(), *trace));
      out.text = render([&] { return api::to_json(out.runs.front()); }, trace);
      break;
    }
    case Kind::kTile: {
      out.runs = trace == nullptr
                     ? sim.run_lane_tile(req.tile)
                     : compose_tile(req.tile, sim.options(), *trace);
      out.text = render([&] { return reports_json(out.runs); }, trace);
      break;
    }
    case Kind::kBus: {
      {
        const Trace::Span span(trace, "api.bus");
        out.bus = sim.run_bus(req.bus, 1);
      }
      out.text = render([&] { return api::to_json(*out.bus); }, trace);
      break;
    }
    case Kind::kOptimize: {
      {
        const Trace::Span span(trace, "opt");
        out.optimize = opt::optimize(req.link);
      }
      if (trace != nullptr) {
        trace->count("opt.calls");
        trace->count("opt.evals", out.optimize->evaluations);
      }
      out.text = render([&] { return api::to_json(*out.optimize); }, trace);
      break;
    }
    case Kind::kSweep: {
      sweep::SweepRunner::Options options;
      options.n_threads = kSweepWorkers;
      const sweep::SweepRunner runner(options);
      {
        std::optional<sweep::ResultStore> store;
        {
          const Trace::Span span(trace, "store.open");
          store.emplace(store_dir);
        }
        if (trace == nullptr) {
          out.cold = sweep::run_sweep_with_store(runner, req.sweep, *store,
                                                 &out.cold_stats);
        } else {
          // run_sweep_with_store recomposed: compute every cell through
          // the runner, committing each row durably as it completes, then
          // assemble the report from the store.
          std::vector<std::uint64_t> indices;
          std::map<std::uint64_t, std::uint64_t> hashes;
          for (std::uint64_t i = 0; i < req.sweep.scenario_count(); ++i) {
            indices.push_back(i);
            hashes[i] = api::spec_content_hash(req.sweep.scenario(i));
          }
          double commit_s = 0.0;
          sweep::SweepRunner::Options computing = options;
          computing.on_scenario = [&](const sweep::ScenarioResult& row) {
            const auto t0 = Clock::now();
            store->commit(hashes.at(row.index), row);
            commit_s += seconds_since(t0);  // callbacks run under a mutex
          };
          {
            const Trace::Span span(trace, "sweep");
            const auto rows = sweep::SweepRunner(std::move(computing))
                                  .run_indices(req.sweep, indices);
            trace->count("sweep.cells", static_cast<double>(rows.size()));
          }
          trace->seconds["store.commit"] += commit_s;
          const Trace::Span span(trace, "store.assemble");
          out.cold = sweep::assemble_report_from_store(
              req.sweep, sweep::Shard{}, *store, nullptr);
          out.cold_stats.total = req.sweep.scenario_count();
          out.cold_stats.computed = req.sweep.scenario_count();
        }
        if (trace != nullptr) {
          trace->count("store.journal_bytes",
                       static_cast<double>(journal_bytes(store_dir)));
        }
      }
      out.text = render([&] { return sweep::to_json(*out.cold); }, trace);
      {
        std::optional<sweep::ResultStore> store;
        {
          const Trace::Span span(trace, "store.open");
          store.emplace(store_dir);
        }
        const Trace::Span span(trace, "store.resume");
        const sweep::SweepReport warm = sweep::run_sweep_with_store(
            runner, req.sweep, *store, &out.warm_stats);
        out.warm_text = render([&] { return sweep::to_json(warm); }, trace);
      }
      if (trace != nullptr) {
        trace->count("store.cached", static_cast<double>(out.warm_stats.cached));
        trace->count("store.resume_cells",
                     static_cast<double>(out.warm_stats.total));
      }
      break;
    }
  }

  // Work counts for the throughput metrics.
  for (const auto& r : out.runs) {
    out.sim_bits += r.bits;
    if (r.stat) ++out.stat_evals;
  }
  if (out.bus) {
    for (const auto& r : out.bus->lanes) {
      out.sim_bits += r.bits;
      if (r.stat) ++out.stat_evals;
    }
  }
  if (out.optimize) {
    out.sim_bits += out.optimize->mc_bits;
    out.stat_evals += static_cast<std::uint64_t>(out.optimize->evaluations);
    if (out.optimize->cross_checked) {
      ++out.xchecks;
      if (out.optimize->mc_consistent) ++out.xcheck_agree;
    }
  }
  if (out.cold) {
    for (const auto& row : out.cold->scenarios) {
      out.sim_bits += row.bits;
      if (row.has_stat) ++out.stat_evals;
      if (row.stat_cross_checked) {
        ++out.xchecks;
        if (row.stat_consistent) ++out.xcheck_agree;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------- checks --

bool in_unit(double v) { return v >= 0.0 && v <= 1.0; }

/// MC bits compared must be the payload, less at most the CDR pipeline's
/// tail allowance per chunk (SerDesLink::finalize_result).
void check_bits(const std::string& what, std::uint64_t bits,
                std::uint64_t payload, std::uint64_t chunk, int bits_per_ui,
                std::vector<std::string>& problems) {
  const std::uint64_t chunks = (payload + chunk - 1) / chunk;
  const std::uint64_t slack = chunks * core::SerDesLink::kCdrTailAllowanceBits *
                              static_cast<std::uint64_t>(bits_per_ui);
  if (bits > payload || bits + slack < payload) {
    problems.push_back(what + ": bits " + std::to_string(bits) +
                       " does not match payload " + std::to_string(payload));
  }
}

void check_run_report(const api::RunReport& r,
                      std::vector<std::string>& problems) {
  const std::string& name = r.spec.name;
  const int bits_per_ui = r.spec.modulation == "pam4" ? 2 : 1;
  if (r.spec.analysis == "stat") {
    if (r.bits != 0) problems.push_back(name + ": stat-only run has bits");
  } else {
    check_bits(name, r.bits, r.spec.payload_bits, r.spec.chunk_bits,
               bits_per_ui, problems);
  }
  if (!in_unit(r.ber) || !in_unit(r.ber_upper_bound)) {
    problems.push_back(name + ": BER outside [0,1]");
  }
  if (r.stat && (!in_unit(r.stat->min_ber) || !in_unit(r.stat->mc_ber))) {
    problems.push_back(name + ": stat BER outside [0,1]");
  }
  const std::string once = api::to_json(r).dump();
  const std::string twice =
      api::to_json(api::run_report_from_json(Json::parse(once))).dump();
  if (once != twice) {
    problems.push_back(name + ": to_json/from_json is not a fixed point");
  }
}

void check_sweep_report(const sweep::SweepReport& report,
                        const sweep::SweepSpec& spec,
                        std::vector<std::string>& problems) {
  if (report.scenarios.size() != spec.scenario_count()) {
    problems.push_back(spec.name + ": report is missing cells");
  }
  for (const auto& row : report.scenarios) {
    const api::LinkSpec cell = spec.scenario(row.index);
    check_bits(row.name, row.bits, cell.payload_bits, cell.chunk_bits,
               cell.modulation == "pam4" ? 2 : 1, problems);
    if (!in_unit(row.ber) || !in_unit(row.ber_upper_bound) ||
        (row.has_stat && !in_unit(row.stat_min_ber))) {
      problems.push_back(row.name + ": BER outside [0,1]");
    }
    const std::string once = sweep::to_json(row).dump();
    const std::string twice =
        sweep::to_json(sweep::scenario_result_from_json(Json::parse(once)))
            .dump();
    if (once != twice) {
      problems.push_back(row.name + ": row round trip is not a fixed point");
    }
  }
}

/// Output checks on one request's outcome.
std::vector<std::string> check_outcome(const Request& req,
                                       const Outcome& out) {
  std::vector<std::string> problems;
  for (const auto& r : out.runs) check_run_report(r, problems);
  if (req.kind == Kind::kTile && out.runs.size() != req.tile.size()) {
    problems.push_back(req.label + ": tile returned the wrong lane count");
  }
  if (out.bus) {
    if (out.bus->lanes.size() != static_cast<std::size_t>(req.bus.lanes)) {
      problems.push_back(req.label + ": bus returned the wrong lane count");
    }
    for (const auto& r : out.bus->lanes) check_run_report(r, problems);
    const std::string once = api::to_json(*out.bus).dump();
    const std::string twice =
        api::to_json(api::bus_report_from_json(Json::parse(once))).dump();
    if (once != twice) {
      problems.push_back(req.label + ": bus round trip is not a fixed point");
    }
  }
  if (out.optimize) {
    const opt::OptimizeReport& o = *out.optimize;
    const std::uint64_t payload =
        std::max(req.link.payload_bits,
                 opt::OptimizeOptions{}.cross_check_payload_bits);
    if (!o.cross_checked || o.evaluations < 1) {
      problems.push_back(req.label + ": optimizer did not cross-check");
    }
    check_bits(req.link.name, o.mc_bits, payload, req.link.chunk_bits,
               req.link.modulation == "pam4" ? 2 : 1, problems);
    if (!in_unit(o.mc_ber) || !in_unit(o.winner_min_ber) ||
        !in_unit(o.baseline_min_ber) || o.winner_min_ber > o.baseline_min_ber) {
      problems.push_back(req.label + ": optimizer BERs inconsistent");
    }
    const std::string once = api::to_json(o).dump();
    const std::string twice =
        api::to_json(api::optimize_report_from_json(Json::parse(once))).dump();
    if (once != twice) {
      problems.push_back(req.label + ": optimize round trip not a fixed point");
    }
  }
  if (out.cold) {
    check_sweep_report(*out.cold, req.sweep, problems);
    if (out.cold_stats.computed != req.sweep.scenario_count()) {
      problems.push_back(req.label + ": cold run reused cells");
    }
    if (out.warm_stats.computed != 0 ||
        out.warm_stats.cached != out.warm_stats.total) {
      problems.push_back(req.label + ": warm resume computed cells");
    }
    if (out.warm_text != out.text) {
      problems.push_back(req.label + ": warm resume report differs from cold");
    }
  }
  return problems;
}

// ---------------------------------------------------------------- set-up --

struct SetupTiming {
  double parse_s = 0.0;
  double lint_s = 0.0;
  std::size_t lint_findings = 0;
};

/// Parses, validates and lints every request file — what serdes_cli does
/// before it runs anything.  Throws on any spec the program rejects.
std::vector<Request> set_up(const std::vector<RequestDoc>& docs,
                            const std::vector<std::string>& texts,
                            SetupTiming& timing) {
  std::vector<Request> requests(docs.size());
  const lint::Linter linter;
  for (std::size_t i = 0; i < docs.size(); ++i) {
    Request& r = requests[i];
    r.kind = docs[i].kind;
    r.label = docs[i].label;
    const auto p0 = Clock::now();
    const Json doc = Json::parse(texts[i]);
    std::string err;
    switch (r.kind) {
      case Kind::kBus:
        r.bus = api::bus_spec_from_json(doc);
        err = r.bus.validate();
        break;
      case Kind::kSweep:
        r.sweep = sweep::SweepSpec::from_json(doc);
        err = r.sweep.validate();
        break;
      default:
        r.link = api::link_spec_from_json(doc);
        err = api::validate_spec_with_paths(r.link);
        break;
    }
    if (!err.empty()) {
      throw std::invalid_argument(r.label + ": invalid spec: " + err);
    }
    if (r.kind == Kind::kTile) {
      // run --lanes N: N copies named <name>/lane<i>, each with its
      // derived per-lane seed (what run_batch hands its lane tiles).
      for (int lane = 0; lane < r.link.lane_batch; ++lane) {
        api::LinkSpec s = r.link;
        s.name = r.link.name + "/lane" + std::to_string(lane);
        s.seed = api::Simulator::derive_lane_seed(
            r.link.seed, static_cast<std::size_t>(lane));
        r.tile.push_back(std::move(s));
      }
    }
    const auto l0 = Clock::now();
    timing.parse_s += std::chrono::duration<double>(l0 - p0).count();
    lint::LintReport report;
    switch (r.kind) {
      case Kind::kBus: report = linter.lint(r.bus); break;
      case Kind::kSweep: report = linter.lint(r.sweep); break;
      default: report = linter.lint(r.link); break;
    }
    timing.lint_s += seconds_since(l0);
    timing.lint_findings += report.findings.size();
    if (report.count_at_least(lint::Severity::kError) > 0) {
      throw std::invalid_argument(r.label + ": lint error: " +
                                  report.findings.front().message);
    }
  }
  return requests;
}

// ------------------------------------------------------------- pre-flight --

/// Read-only: the shipped example specs still reproduce their goldens
/// byte for byte.  Returns the names that do not.
std::vector<std::string> golden_preflight(const fs::path& repo) {
  const std::vector<std::string> names = {"paper_default", "stat_ci",
                                          "trained_ci"};
  std::vector<std::string> result(names.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < names.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        const auto read = [](const fs::path& p) {
          std::ifstream in(p, std::ios::binary);
          if (!in) throw std::runtime_error("cannot read " + p.string());
          std::ostringstream s;
          s << in.rdbuf();
          return s.str();
        };
        const std::string spec_text =
            read(repo / "examples" / "specs" / (names[i] + ".json"));
        const std::string golden =
            read(repo / "tests" / "golden" / (names[i] + ".json"));
        const api::LinkSpec spec =
            api::link_spec_from_json(Json::parse(spec_text));
        const std::string actual =
            api::to_json(api::Simulator().run(spec)).dump(2) + "\n";
        if (actual != golden) result[i] = names[i] + ": differs from golden";
      } catch (const std::exception& e) {
        result[i] = names[i] + ": " + e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<std::string> failures;
  for (const auto& r : result) {
    if (!r.empty()) failures.push_back(r);
  }
  return failures;
}

// ------------------------------------------------------------- threading --

/// Re-runs the pass with kCheckThreads threads where the API takes a
/// thread count (run_batch, run_bus, SweepRunner) and returns, per
/// request, the report text it produced (empty where not applicable).
std::vector<std::string> rerun_threaded(const std::vector<Request>& requests) {
  std::vector<std::string> texts(requests.size());
  api::Simulator::Options no_derive;
  no_derive.derive_lane_seeds = false;
  const api::Simulator batch_sim(no_derive);

  // Single-lane runs as one batch; tiles as scalar lanes (tiling off), so
  // this also pins the tile against the scalar path.
  std::vector<api::LinkSpec> singles;
  std::vector<std::size_t> owners;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].kind == Kind::kRun) {
      singles.push_back(requests[i].link);
      owners.push_back(i);
    }
  }
  if (!singles.empty()) {
    const auto reports = batch_sim.run_batch(singles, kCheckThreads);
    for (std::size_t k = 0; k < reports.size(); ++k) {
      texts[owners[k]] = api::to_json(reports[k]).dump(2) + "\n";
    }
  }
  api::Simulator::Options scalar = no_derive;
  scalar.lane_tiling = false;
  const api::Simulator scalar_sim(scalar);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (r.kind == Kind::kTile) {
      texts[i] = reports_json(scalar_sim.run_batch(r.tile, kCheckThreads))
                     .dump(2) + "\n";
    } else if (r.kind == Kind::kBus) {
      texts[i] = api::to_json(api::Simulator().run_bus(r.bus, kCheckThreads))
                     .dump(2) + "\n";
    } else if (r.kind == Kind::kSweep) {
      // Same grid at 1 worker, without a store: the report must match the
      // store-backed multi-worker one byte for byte.
      sweep::SweepRunner::Options options;
      options.n_threads = 1;
      texts[i] = sweep::to_json(sweep::SweepRunner(options).run(r.sweep))
                     .dump(2) + "\n";
    }
  }
  return texts;
}

// --------------------------------------------------------------- metrics --

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks (numpy's default).
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set (VmHWM) in MiB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Resets VmHWM so the peak covers the measured loop only, not the
/// golden pre-flight and set-up.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path repo = ".";
  fs::path work_dir = ".bench_build/work";
  std::optional<fs::path> dump_specs;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--repo") {
      a.repo = value;
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--dump-specs") {
      a.dump_specs = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

void put(Json& metrics, const std::string& name, double value,
         const std::string& unit) {
  Json m = Json::object();
  m.set("value", value);
  m.set("unit", unit);
  metrics.set(name, std::move(m));
}

int run(const Args& args) {
  // ---- inputs --------------------------------------------------------
  const std::vector<RequestDoc> docs = generate(args.workload, args.seed);
  std::vector<std::string> texts;
  for (const auto& d : docs) texts.push_back(d.doc.dump(2) + "\n");
  if (args.dump_specs) {
    fs::create_directories(*args.dump_specs);
    std::ostringstream manifest;
    for (std::size_t i = 0; i < docs.size(); ++i) {
      const std::string file =
          std::to_string(i) + "-" + docs[i].label + ".json";
      serdes::util::atomic_write_file((*args.dump_specs / file).string(),
                                      texts[i]);
      manifest << replay_command(docs[i].kind, file) << "\n";
    }
    serdes::util::atomic_write_file(
        (*args.dump_specs / "replay.txt").string(), manifest.str());
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  // One failed request counts once, however many of its checks fail.
  const auto fail_all = [&](const std::string& tag,
                            const std::vector<std::string>& problems) {
    for (const auto& p : problems) {
      std::cerr << "perfbench: FAILED " << tag << (p.empty() ? "" : ": ")
                << p << "\n";
    }
    if (problems.empty()) return;
    ++failed;
    correct = false;
  };
  const auto fail = [&](const std::string& what) { fail_all(what, {""}); };

  // ---- golden pre-flight (once, untimed) -----------------------------
  for (const auto& f : golden_preflight(args.repo)) {
    fail("golden pre-flight: " + f);
  }
  attempted += 3;

  // ---- set-up: parse, validate and lint the pass ---------------------
  // One sample repeats the pass's set-up for kSetupBlockS.  Samples are
  // taken before the first pass and after every pass, so they see the
  // same host as the requests; setup_s is their median.
  std::vector<double> setup_s, parse_s, lint_s;
  std::size_t lint_findings = 0;
  const auto sample_setup = [&] {
    SetupTiming t;
    std::vector<Request> parsed;
    int reps = 0;
    double elapsed = 0.0;
    const auto t0 = Clock::now();
    do {
      parsed = set_up(docs, texts, t);
      ++reps;
      elapsed = seconds_since(t0);
    } while (elapsed < kSetupBlockS);
    setup_s.push_back(elapsed / reps);
    parse_s.push_back(t.parse_s / reps);
    lint_s.push_back(t.lint_s / reps);
    lint_findings = t.lint_findings / static_cast<std::size_t>(reps);
    return parsed;
  };
  std::vector<Request> requests;
  for (int block = 0; block < kSetupBlocks; ++block) requests = sample_setup();
  std::cerr << "perfbench: " << args.workload << " seed " << args.seed << ": "
            << requests.size() << " requests per pass, " << lint_findings
            << " lint finding(s), none at error\n";

  const fs::path work = args.work_dir / ("run-" + std::to_string(args.seed));
  fs::remove_all(work);
  fs::create_directories(work);
  const auto store_dir = [&](std::uint64_t k) {
    return (work / ("store-" + std::to_string(k))).string();
  };
  const api::Simulator sim;
  reset_peak_rss();

  // Per-request digest of the first pass; later passes must match it.
  std::vector<std::optional<std::string>> first_text(requests.size());
  const auto check = [&](std::size_t idx, const Outcome& out) {
    std::vector<std::string> problems = check_outcome(requests[idx], out);
    if (!first_text[idx]) {
      first_text[idx] = out.text;
    } else if (*first_text[idx] != out.text) {
      problems.push_back("report differs from the first pass");
    }
    return problems;
  };

  Json metrics = Json::object();
  std::uint64_t stat_evals = 0, xchecks = 0, xagree = 0;
  double busy_s = 0.0;
  std::map<std::string, std::vector<double>> by_label;
  std::uint64_t seq = 0;

  if (!args.trace) {
    // ---- measured closed loop, tracing off ---------------------------
    // Whole passes only, so the request mix is exact.  Throughput is taken
    // per pass and reported as the median, which a short host stall in one
    // pass does not move.
    std::vector<double> latencies, pass_reports_per_s, pass_bits_per_s;
    std::size_t passes = 0;
    const auto loop_t0 = Clock::now();
    while (seconds_since(loop_t0) < args.seconds ||
           passes * requests.size() < kMinLatencySamples) {
      double pass_s = 0.0;
      std::uint64_t pass_bits = 0;
      for (std::size_t idx = 0; idx < requests.size(); ++idx) {
        const Request& req = requests[idx];
        const std::string dir = store_dir(seq++);
        ++attempted;
        try {
          const auto t0 = Clock::now();
          const Outcome out = execute(req, sim, dir, nullptr);
          const double lat = seconds_since(t0);
          latencies.push_back(lat);
          by_label[req.label].push_back(lat);
          pass_s += lat;
          pass_bits += out.sim_bits;
          stat_evals += out.stat_evals;
          xchecks += out.xchecks;
          xagree += out.xcheck_agree;
          fail_all(req.label, check(idx, out));
        } catch (const std::exception& e) {
          fail(req.label + ": " + e.what());
        }
        fs::remove_all(dir);
      }
      busy_s += pass_s;
      ++passes;
      sample_setup();
      if (pass_s > 0.0) {
        pass_reports_per_s.push_back(static_cast<double>(requests.size()) /
                                     pass_s);
        pass_bits_per_s.push_back(static_cast<double>(pass_bits) / pass_s);
      }
    }
    const double rss = peak_rss_mb();

    // ---- determinism across thread counts (untimed) ------------------
    try {
      const auto threaded = rerun_threaded(requests);
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (threaded[i].empty()) continue;
        ++attempted;
        if (first_text[i] && threaded[i] != *first_text[i]) {
          fail(requests[i].label + ": report differs at " +
               std::to_string(kCheckThreads) + " threads");
        }
      }
    } catch (const std::exception& e) {
      fail(std::string("threaded re-run: ") + e.what());
    }

    for (const auto& [label, v] : by_label) {
      std::cerr << "perfbench:   " << label << ": n=" << v.size()
                << " median=" << median(v) * 1e3 << " ms\n";
    }
    std::cerr << "perfbench: latency over " << latencies.size()
              << " requests: p50=" << quantile(latencies, 0.5) * 1e3
              << " ms p90=" << quantile(latencies, 0.9) * 1e3 << " ms ("
              << latencies.size() / 10 << " samples beyond p90), "
              << passes << " passes\n";
    std::cerr << "perfbench: set-up " << median(setup_s) * 1e3
              << " ms per pass (median of " << setup_s.size() << " samples)\n";
    put(metrics, "setup_s", median(setup_s), "s");
    put(metrics, "reports_per_s", median(pass_reports_per_s), "1/s");
    put(metrics, "latency_p50_ms", quantile(latencies, 0.5) * 1e3, "ms");
    put(metrics, "latency_p90_ms", quantile(latencies, 0.9) * 1e3, "ms");
    put(metrics, "sim_bits_per_s", median(pass_bits_per_s), "bits/s");
    put(metrics, "peak_rss_mb", rss, "MiB");
  } else {
    // ---- traced run: each request untraced and recomposed -------------
    // The two executions alternate which goes first from pass to pass, so
    // neither systematically runs on the other's warm caches.
    Trace trace;
    double untraced_s = 0.0;
    double traced_s = 0.0;
    int passes = 0;
    const auto loop_t0 = Clock::now();
    while (seconds_since(loop_t0) < args.seconds || passes == 0) {
      for (std::size_t idx = 0; idx < requests.size(); ++idx) {
        const Request& req = requests[idx];
        const auto timed = [&](Trace* t, double& total) {
          const std::string dir = store_dir(seq++);
          const auto t0 = Clock::now();
          Outcome out = execute(req, sim, dir, t);
          total += seconds_since(t0);
          fs::remove_all(dir);
          return out;
        };
        attempted += 2;
        try {
          std::optional<Outcome> plain;
          std::optional<Outcome> traced;
          if (passes % 2 == 0) {
            plain = timed(nullptr, untraced_s);
            traced = timed(&trace, traced_s);
          } else {
            traced = timed(&trace, traced_s);
            plain = timed(nullptr, untraced_s);
          }
          stat_evals += plain->stat_evals;
          xchecks += plain->xchecks;
          xagree += plain->xcheck_agree;
          fail_all(req.label, check(idx, *plain));
          std::vector<std::string> problems = check(idx, *traced);
          if (traced->text != plain->text) {
            problems.push_back(
                "traced composition differs from the untraced report");
          }
          fail_all(req.label + " (traced)", problems);
        } catch (const std::exception& e) {
          fail(req.label + ": " + e.what());
        }
      }
      ++passes;
      sample_setup();
    }
    busy_s = untraced_s;
    const double p = passes;
    const auto sec = [&](const std::string& name) {
      const auto it = trace.seconds.find(name);
      return it == trace.seconds.end() ? 0.0 : it->second / p;
    };
    const auto cnt = [&](const std::string& name) {
      const auto it = trace.counts.find(name);
      return it == trace.counts.end() ? 0.0 : it->second / p;
    };
    double attributed = 0.0;
    for (const auto& [name, s] : trace.seconds) {
      if (name != "store.commit") attributed += s;  // runs inside "sweep"
    }
    std::cerr << "perfbench: traced " << passes << " pass(es) of "
              << requests.size() << " requests; per-layer values are per pass\n";
    put(metrics, "trace.request_s", traced_s / p, "s");
    put(metrics, "api.parse_s", median(parse_s), "s");
    put(metrics, "lint.s", median(lint_s), "s");
    put(metrics, "api.lower_s", sec("api.lower"), "s");
    put(metrics, "api.bus_s", sec("api.bus"), "s");
    put(metrics, "core.train_s", sec("core.train"), "s");
    put(metrics, "core.train_calls", cnt("core.train_calls"), "count");
    put(metrics, "stat.analyze_s", sec("stat.analyze"), "s");
    put(metrics, "stat.analyze_calls", cnt("stat.analyze_calls"), "count");
    put(metrics, "core.mc_s", sec("core.mc"), "s");
    put(metrics, "core.mc_bits", cnt("core.mc_bits"), "bits");
    put(metrics, "core.lane_tile_s", sec("core.lane_tile"), "s");
    put(metrics, "core.lane_tile_lane_bits", cnt("core.lane_tile_lane_bits"),
        "bits");
    put(metrics, "core.eye_s", sec("core.eye"), "s");
    put(metrics, "opt.s", sec("opt"), "s");
    put(metrics, "opt.evals", cnt("opt.evals"), "count");
    put(metrics, "opt.evals_per_call",
        cnt("opt.calls") > 0 ? cnt("opt.evals") / cnt("opt.calls") : 0.0,
        "count");
    put(metrics, "sweep.s", sec("sweep"), "s");
    put(metrics, "sweep.cells", cnt("sweep.cells"), "count");
    put(metrics, "store.cold_s", sec("sweep") + sec("store.assemble"), "s");
    put(metrics, "store.commit_s", sec("store.commit"), "s");
    put(metrics, "store.open_s", sec("store.open"), "s");
    put(metrics, "store.resume_s", sec("store.resume"), "s");
    put(metrics, "store.journal_bytes", cnt("store.journal_bytes"), "bytes");
    put(metrics, "store.cached_frac",
        cnt("store.resume_cells") > 0
            ? cnt("store.cached") / cnt("store.resume_cells")
            : 0.0,
        "ratio");
    put(metrics, "report.json_s", sec("report.json"), "s");
    put(metrics, "report.bytes", cnt("report.bytes"), "bytes");
    put(metrics, "unattributed_s", (traced_s - attributed) / p, "s");
    put(metrics, "trace_overhead_frac", traced_s / untraced_s - 1.0, "ratio");
    put(metrics, "stat_evals_per_s",
        static_cast<double>(stat_evals) / untraced_s, "1/s");
  }
  const double err_rate =
      static_cast<double>(failed) / static_cast<double>(attempted);
  const double agree =
      xchecks > 0 ? static_cast<double>(xagree) / static_cast<double>(xchecks)
                  : 0.0;
  if (args.trace) {
    put(metrics, "error_rate", err_rate, "ratio");
    put(metrics, "xcheck_agree_frac", agree, "ratio");
  }
  std::cerr << "perfbench: stat_evals_per_s="
            << static_cast<double>(stat_evals) / busy_s
            << " error_rate=" << err_rate << " xcheck_agree_frac=" << agree
            << " (" << xchecks << " cross-checks)\n";
  fs::remove_all(work);

  Json result = Json::object();
  result.set("correct", correct);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(metrics));
  std::cout << result.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "serdes_perfbench: " << e.what() << "\n";
    return 2;
  }
}
