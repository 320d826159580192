#include "api/simulator.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "api/bus_spec.h"
#include "api/channel_factory.h"
#include "api/spec_json.h"
#include "core/ber.h"
#include "core/lane_link.h"
#include "core/link.h"
#include "stat/stat_engine.h"
#include "util/prbs.h"

namespace serdes::api {

bool Simulator::tile_eligible(const LinkSpec& spec) {
  // Trained lanes are excluded: each lane trains its own EQ from its
  // derived seed, so tiles could no longer share one instruction stream
  // over identical physics.
  return spec.lane_batch > 1 && spec.analysis == "mc" &&
         spec.eq != "trained";
}

std::string Simulator::tile_key(const LinkSpec& spec) {
  LinkSpec key = spec;
  key.name.clear();
  key.seed = 0;
  return to_json(key).dump();
}

std::uint64_t Simulator::derive_lane_seed(std::uint64_t base_seed,
                                          std::size_t lane) {
  // splitmix64 step (Steele/Lea/Flood) over base ^ lane: well-mixed,
  // collision-free per lane, and stable across platforms and thread
  // schedules.
  std::uint64_t z = base_seed ^ (0x9e3779b97f4a7c15ull *
                                 (static_cast<std::uint64_t>(lane) + 1));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

RunReport Simulator::run(const LinkSpec& spec) const {
  return run_impl(spec, {});
}

RunReport Simulator::run_impl(
    const LinkSpec& spec, const std::vector<core::XtalkPath>& xtalk) const {
  RunReport report;
  report.spec = spec;
  report.confidence_level = options_.confidence_level;

  core::LinkConfig cfg = spec.to_link_config();
  cfg.xtalk = xtalk;

  // Link training first: eq "trained" replays a deterministic preamble
  // and rewrites the executed EQ settings (DFE taps, FFE, CTLE) before
  // either engine runs, so stat and MC see the same trained link.  The
  // report's spec keeps the authored values; the converged settings land
  // in report.training.
  if (spec.eq == "trained") {
    const auto train_channel =
        ChannelFactory::instance().create(spec.channel, cfg);
    const std::size_t n_taps =
        spec.dfe_taps.empty() ? 3 : spec.dfe_taps.size();
    core::TrainingResult trained = core::train_equalizer(
        cfg, *train_channel, spec.training_uis, n_taps);
    cfg.dfe_taps = trained.dfe_taps;
    cfg.tx_ffe_deemphasis = trained.tx_ffe_deemphasis;
    cfg.rx_ctle_boost = util::decibels(trained.rx_ctle_boost_db);
    report.training = std::move(trained);
  }

  // Statistical analysis first: it is cheap (no bit stream), and a
  // "stat"-only run returns here without ever building the MC datapath's
  // traffic.  The channel model is the same factory-built instance kind
  // the MC path would run, so both engines see identical physics.
  const bool want_stat = spec.analysis == "stat" || spec.analysis == "both";
  if (want_stat) {
    stat::StatAnalyzer::Options stat_options;
    stat_options.phase_bins_per_ui = options_.stat_phase_bins_per_ui;
    stat_options.target_ber = spec.stat_target_ber;
    const stat::StatAnalyzer analyzer(stat_options);
    const auto channel = ChannelFactory::instance().create(spec.channel, cfg);
    report.stat = analyzer.analyze(cfg, *channel);
    if (spec.analysis == "stat") return report;
  }
  // The first chunk always captures waveforms: lock diagnostics and eye
  // metrics come from it.  Whether they stay in the report is the spec's
  // capture_waveforms choice.  Capture is bounded to the diagnostic window
  // so a deep first chunk does not cost O(chunk) memory.
  cfg.capture_waveforms = true;
  cfg.capture_max_samples = static_cast<std::size_t>(
      options_.diagnostic_window_uis *
      static_cast<std::uint64_t>(cfg.samples_per_ui));
  core::SerDesLink link(cfg,
                        ChannelFactory::instance().create(spec.channel, cfg));

  // The chunked-BER accounting lives in core::measure_ber; the observer
  // lifts the diagnostics off the first chunk and turns capture off for
  // the bulk chunks.
  bool first_chunk = true;
  const core::BerMeasurement m = core::measure_ber(
      link, spec.payload_bits, spec.chunk_bits, options_.confidence_level,
      spec.prbs_order, [&](const core::LinkResult& r) {
        if (!first_chunk) return;
        first_chunk = false;
        report.cdr_decision_phase = r.rx.cdr_decision_phase;
        report.cdr_phase_updates = r.rx.cdr_phase_updates;
        report.rx_swing_pp = r.rx_swing_pp;
        report.decision_threshold = r.decision_threshold;
        // The eye is folded per line UI: the symbol period under PAM4.
        const core::EyeAnalyzer eye(
            util::hertz(cfg.bit_rate.value() /
                        static_cast<double>(cfg.bits_per_ui())),
            options_.eye_bins_per_ui);
        report.eye = eye.analyze(r.rx.restored, report.decision_threshold);
        if (spec.capture_waveforms) {
          report.tx_out = r.tx_out;
          report.channel_out = r.channel_out;
          report.restored = r.rx.restored;
        }
        link.set_capture_waveforms(false);
      });

  report.aligned = m.aligned;
  report.bits = m.bits;
  report.errors = m.errors;
  report.ber = m.ber;
  report.ber_upper_bound = m.ber_upper_bound;

  if (want_stat) {
    // "both": the MC measurement must land inside the stat engine's
    // predicted BER band — the two engines regression-test each other.
    stat::StatAnalyzer::cross_check(*report.stat, report.bits, report.errors,
                                    spec.cdr_oversampling,
                                    spec.cdr_glitch_filter_radius,
                                    options_.stat_cross_check_slack);
  }
  return report;
}

std::vector<RunReport> Simulator::run_lane_tile(
    const std::vector<LinkSpec>& lane_specs) const {
  std::vector<RunReport> reports(lane_specs.size());
  if (lane_specs.empty()) return reports;
  const LinkSpec& base = lane_specs[0];
  for (const LinkSpec& spec : lane_specs) spec.validate_or_throw();
  if (base.analysis != "mc") {
    throw std::invalid_argument(
        "run_lane_tile: lane tiling requires 'mc' scenarios");
  }
  const std::string key = tile_key(base);
  for (std::size_t i = 1; i < lane_specs.size(); ++i) {
    if (tile_key(lane_specs[i]) != key) {
      throw std::invalid_argument(
          "run_lane_tile: lane specs must be identical up to name and seed");
    }
  }

  core::LinkConfig cfg = base.to_link_config();
  // Same capture policy as run(): diagnostics come from each lane's first
  // chunk, bounded to the diagnostic window.
  cfg.capture_waveforms = true;
  cfg.capture_max_samples = static_cast<std::size_t>(
      options_.diagnostic_window_uis *
      static_cast<std::uint64_t>(cfg.samples_per_ui));
  std::vector<std::uint64_t> seeds(lane_specs.size());
  for (std::size_t i = 0; i < lane_specs.size(); ++i) {
    seeds[i] = lane_specs[i].seed;
  }
  core::LaneLink link(cfg,
                      ChannelFactory::instance().create(base.channel, cfg),
                      std::move(seeds));
  std::vector<core::LaneOutcome> outcomes =
      link.measure(base.payload_bits, base.chunk_bits,
                   options_.confidence_level, base.prbs_order);

  // The eye is folded per line UI: the symbol period under PAM4.
  const core::EyeAnalyzer eye(
      util::hertz(cfg.bit_rate.value() /
                  static_cast<double>(cfg.bits_per_ui())),
      options_.eye_bins_per_ui);
  for (std::size_t i = 0; i < lane_specs.size(); ++i) {
    core::LaneOutcome& o = outcomes[i];
    RunReport& report = reports[i];
    report.spec = lane_specs[i];
    report.confidence_level = options_.confidence_level;
    report.cdr_decision_phase = o.cdr_decision_phase;
    report.cdr_phase_updates = o.cdr_phase_updates;
    report.rx_swing_pp = o.rx_swing_pp;
    report.decision_threshold = o.decision_threshold;
    report.eye = eye.analyze(o.restored, o.decision_threshold);
    if (lane_specs[i].capture_waveforms) {
      report.tx_out = std::move(o.tx_out);
      report.channel_out = std::move(o.channel_out);
      report.restored = std::move(o.restored);
    }
    report.aligned = o.measurement.aligned;
    report.bits = o.measurement.bits;
    report.errors = o.measurement.errors;
    report.ber = o.measurement.ber;
    report.ber_upper_bound = o.measurement.ber_upper_bound;
  }
  return reports;
}

std::vector<RunReport> Simulator::run_batch(const std::vector<LinkSpec>& specs,
                                            int n_threads) const {
  // Fail fast, before any lane burns cycles.  Constructing each lane's
  // channel up front also catches unknown kinds nested inside composite
  // stages (channel construction is cheap next to running a lane).
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (auto err = specs[i].validate(); !err.empty()) {
      throw std::invalid_argument("run_batch lane " + std::to_string(i) +
                                  " ('" + specs[i].name + "'): " + err);
    }
    try {
      (void)ChannelFactory::instance().create(specs[i].channel,
                                              specs[i].to_link_config());
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("run_batch lane " + std::to_string(i) +
                                  " ('" + specs[i].name + "'): " + e.what());
    }
  }

  std::vector<RunReport> reports(specs.size());
  if (specs.empty()) return reports;

  // Work items: scalar lanes, plus lane tiles for specs that opted into
  // lane_batch (grouped by identical physics, cut into tiles of at most
  // lane_batch lanes).  Every lane's seed derivation and report index use
  // its original batch position, so the output is bit-identical with
  // tiling on or off, at any thread count.
  struct WorkItem {
    bool tile = false;
    std::vector<std::size_t> lanes;  // spec indices; one entry when !tile
  };
  std::vector<WorkItem> items;
  if (options_.lane_tiling) {
    std::vector<std::string> keys;  // insertion-ordered: deterministic
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (!tile_eligible(specs[i])) {
        items.push_back(WorkItem{false, {i}});
        continue;
      }
      const std::string key = tile_key(specs[i]);
      std::size_t g = keys.size();
      for (std::size_t k = 0; k < keys.size(); ++k) {
        if (keys[k] == key) {
          g = k;
          break;
        }
      }
      if (g == keys.size()) {
        keys.push_back(key);
        groups.emplace_back();
      }
      groups[g].push_back(i);
    }
    for (const std::vector<std::size_t>& group : groups) {
      const auto width = static_cast<std::size_t>(specs[group[0]].lane_batch);
      for (std::size_t at = 0; at < group.size(); at += width) {
        WorkItem item;
        item.tile = true;
        const std::size_t end = std::min(group.size(), at + width);
        item.lanes.assign(group.begin() + static_cast<std::ptrdiff_t>(at),
                          group.begin() + static_cast<std::ptrdiff_t>(end));
        items.push_back(std::move(item));
      }
    }
  } else {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      items.push_back(WorkItem{false, {i}});
    }
  }

  unsigned workers = n_threads > 0
                         ? static_cast<unsigned>(n_threads)
                         : std::max(1u, std::thread::hardware_concurrency());
  workers = std::min<unsigned>(workers,
                               static_cast<unsigned>(items.size()));

  std::atomic<std::size_t> next_item{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto worker = [&]() {
    for (;;) {
      // A thrown lane voids the whole batch, so stop picking up new work.
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t idx = next_item.fetch_add(1);
      if (idx >= items.size()) return;
      const WorkItem& item = items[idx];
      try {
        if (item.tile) {
          std::vector<LinkSpec> lane_specs;
          lane_specs.reserve(item.lanes.size());
          for (const std::size_t lane : item.lanes) {
            LinkSpec lane_spec = specs[lane];
            if (options_.derive_lane_seeds) {
              lane_spec.seed = derive_lane_seed(lane_spec.seed, lane);
            }
            lane_specs.push_back(std::move(lane_spec));
          }
          std::vector<RunReport> tile_reports = run_lane_tile(lane_specs);
          for (std::size_t j = 0; j < item.lanes.size(); ++j) {
            reports[item.lanes[j]] = std::move(tile_reports[j]);
          }
        } else {
          const std::size_t lane = item.lanes[0];
          LinkSpec lane_spec = specs[lane];
          if (options_.derive_lane_seeds) {
            lane_spec.seed = derive_lane_seed(lane_spec.seed, lane);
          }
          reports[lane] = run(lane_spec);
        }
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }

  if (first_error) std::rethrow_exception(first_error);
  return reports;
}

namespace {

/// Crosstalk paths seen by victim lane `v`: for every aggressor lane
/// a != v, a FEXT path (through the victim's channel) from `coupling` and
/// a NEXT path (direct) from `next_coupling`, zero gains dropped.  The
/// aggressor's stream is the shared framed PRBS pattern delayed by the
/// lane distance |v - a| UIs — a deterministic skew that decorrelates
/// aggressor symbols from the victim's without extra pattern state.
std::vector<core::XtalkPath> xtalk_for_lane(const BusSpec& spec,
                                            std::size_t v) {
  std::vector<core::XtalkPath> paths;
  const auto n = static_cast<std::size_t>(spec.lanes);
  for (std::size_t a = 0; a < n; ++a) {
    if (a == v) continue;  // self-coupling is a lint finding, never run
    const int delay = static_cast<int>(v > a ? v - a : a - v);
    if (!spec.coupling.empty() && spec.coupling[v][a] != 0.0) {
      core::XtalkPath p;
      p.gain = spec.coupling[v][a];
      p.through_channel = true;
      p.delay_ui = delay;
      paths.push_back(p);
    }
    if (!spec.next_coupling.empty() && spec.next_coupling[v][a] != 0.0) {
      core::XtalkPath p;
      p.gain = spec.next_coupling[v][a];
      p.through_channel = false;
      p.delay_ui = delay;
      paths.push_back(p);
    }
  }
  return paths;
}

}  // namespace

BusReport Simulator::run_bus(const BusSpec& spec, int n_threads) const {
  spec.validate_or_throw();
  const std::vector<LinkSpec> lanes = spec.expand();

  BusReport report;
  report.name = spec.name;
  report.coupling = spec.coupling;
  report.next_coupling = spec.next_coupling;

  if (!spec.has_coupling()) {
    // No crosstalk: the bus IS N independent lanes — take the batched
    // path (tiling and all) so reports are byte-identical to run_batch.
    report.lanes = run_batch(lanes, n_threads);
    return report;
  }

  for (std::size_t i = 0; i < lanes.size(); ++i) {
    (void)ChannelFactory::instance().create(lanes[i].channel,
                                            lanes[i].to_link_config());
  }

  report.lanes.resize(lanes.size());
  unsigned workers = n_threads > 0
                         ? static_cast<unsigned>(n_threads)
                         : std::max(1u, std::thread::hardware_concurrency());
  workers = std::min<unsigned>(workers, static_cast<unsigned>(lanes.size()));

  std::atomic<std::size_t> next_lane{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto worker = [&]() {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next_lane.fetch_add(1);
      if (i >= lanes.size()) return;
      try {
        LinkSpec lane_spec = lanes[i];
        if (options_.derive_lane_seeds) {
          lane_spec.seed = derive_lane_seed(lane_spec.seed, i);
        }
        report.lanes[i] = run_impl(lane_spec, xtalk_for_lane(spec, i));
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }

  if (first_error) std::rethrow_exception(first_error);
  return report;
}

}  // namespace serdes::api
