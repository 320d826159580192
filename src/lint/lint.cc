#include "lint/lint.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "api/bus_spec.h"
#include "api/simulator.h"
#include "api/spec_json.h"
#include "util/math.h"

namespace serdes::lint {

using util::Json;
using util::JsonError;

std::string_view to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

Severity severity_from_string(std::string_view text, const std::string& path) {
  if (text == "info") return Severity::kInfo;
  if (text == "warning") return Severity::kWarning;
  if (text == "error") return Severity::kError;
  util::fail_at(path, "severity must be one of 'info', 'warning', 'error'");
}

std::size_t LintReport::count(Severity severity) const {
  std::size_t n = 0;
  for (const auto& f : findings) {
    if (f.severity == severity) ++n;
  }
  return n;
}

std::size_t LintReport::count_at_least(Severity severity) const {
  std::size_t n = 0;
  for (const auto& f : findings) {
    if (f.severity >= severity) ++n;
  }
  return n;
}

namespace {

/// Shortest-round-trip rendering for numbers quoted in messages (the
/// same form the value has in a spec file).
std::string num(double v) { return Json(v).dump(); }

void emit(std::vector<Finding>& out, const RuleInfo& info, std::string path,
          std::string message, std::string hint) {
  out.push_back({info.id, info.severity, std::move(path), std::move(message),
                 std::move(hint)});
}

/// True when a FIR or lossy-line stage — the kinds the dsp engine
/// accelerates — appears anywhere in the channel tree.  `max_fir_macs`
/// reports the widest FIR stage (MACs per output sample of the strided
/// kernel, i.e. its tap count).
void scan_conv_stages(const api::ChannelSpec& ch, bool& has_fir,
                      bool& has_lossy, std::size_t& max_fir_macs) {
  if (ch.kind == "fir") {
    has_fir = true;
    max_fir_macs = std::max(max_fir_macs, ch.fir_taps.size());
  } else if (ch.kind == "lossy_line") {
    has_lossy = true;
  }
  for (const auto& stage : ch.stages) {
    scan_conv_stages(stage, has_fir, has_lossy, max_fir_macs);
  }
}

// ---- Spec-level rules ------------------------------------------------

void check_underpowered_cross_check(const api::LinkSpec& spec,
                                    const std::string& prefix,
                                    const Linter::Options& opt,
                                    const RuleInfo& info,
                                    std::vector<Finding>& out) {
  if (spec.analysis != "both" || spec.payload_bits >= opt.cross_check_min_bits) {
    return;
  }
  emit(out, info, prefix + ".payload_bits",
       "analysis \"both\" cross-checks the measured MC BER against the stat "
       "prediction band, but " +
           std::to_string(spec.payload_bits) +
           " payload bits resolve BER only down to ~" +
           num(3.0 / static_cast<double>(spec.payload_bits)) +
           " — the check has almost no statistical power",
       "raise payload_bits to >= " + std::to_string(opt.cross_check_min_bits) +
           " or use analysis \"stat\"");
}

void check_unreachable_stat_target(const api::LinkSpec& spec,
                                   const std::string& prefix,
                                   const Linter::Options& opt,
                                   const RuleInfo& info,
                                   std::vector<Finding>& out) {
  if (spec.analysis != "stat" || spec.noise_rms_v <= 0.0) return;
  // Necessary condition only: even with zero ISI and an ideal sampling
  // phase, the slicer sees at most half the dc-attenuated swing against
  // the full noise sigma.  If that already fails the target, no
  // equalization setting can recover it.
  const double amplitude = 0.5 * opt.nominal_swing_v *
                           std::pow(10.0, -estimated_dc_loss_db(spec.channel) /
                                              20.0);
  const double q_available = amplitude / spec.noise_rms_v;
  const double q_required = util::q_inverse(spec.stat_target_ber);
  if (q_available >= q_required) return;
  emit(out, info, prefix + ".stat_target_ber",
       "structurally unreachable: the zero-ISI bound gives Q = " +
           num(q_available) + " (" + num(amplitude) + " V signal vs " +
           num(spec.noise_rms_v) + " V rms noise), but BER " +
           num(spec.stat_target_ber) + " needs Q >= " + num(q_required),
       "lower the channel loss / noise_rms_v or relax stat_target_ber");
}

void check_stat_grid_fallback(const api::LinkSpec& spec,
                              const std::string& prefix,
                              const Linter::Options& opt, const RuleInfo& info,
                              std::vector<Finding>& out) {
  if (spec.analysis == "mc") return;
  const int cursors = estimated_isi_cursors(spec.channel, spec.bit_rate_hz,
                                            spec.samples_per_ui);
  if (cursors <= opt.max_exact_isi_cursors) return;
  emit(out, info, prefix + ".channel",
       "channel memory spans ~" + std::to_string(cursors) +
           " UI-spaced ISI cursors, past the " +
           std::to_string(opt.max_exact_isi_cursors) +
           "-cursor exact-enumeration limit — the stat engine will fall back "
           "to grid convolution, whose deep-tail accuracy degrades near the "
           "target BER",
       "trim the channel memory (shorter fir_taps / higher pole) or treat "
       "grid-mode tails as approximate");
}

void check_dsp_inert(const api::LinkSpec& spec, const std::string& prefix,
                     const Linter::Options& opt, const RuleInfo& info,
                     std::vector<Finding>& out) {
  (void)opt;
  if (!spec.dsp) return;
  bool has_fir = false, has_lossy = false;
  std::size_t max_fir_macs = 0;
  scan_conv_stages(spec.channel, has_fir, has_lossy, max_fir_macs);
  if (has_fir || has_lossy) return;
  emit(out, info, prefix + ".dsp",
       "dsp = true only reroutes \"fir\" and \"lossy_line\" stages through "
       "the block-convolution engine; this channel tree has neither, so the "
       "flag is inert",
       "drop dsp or use a channel kind the engine accelerates");
}

void check_dsp_below_crossover(const api::LinkSpec& spec,
                               const std::string& prefix,
                               const Linter::Options& opt, const RuleInfo& info,
                               std::vector<Finding>& out) {
  if (!spec.dsp) return;
  bool has_fir = false, has_lossy = false;
  std::size_t max_fir_macs = 0;
  scan_conv_stages(spec.channel, has_fir, has_lossy, max_fir_macs);
  // Lossy lines lower to long truncated impulses, safely above the
  // crossover; only an all-FIR tree can sit entirely below it.
  if (!has_fir || has_lossy) return;
  if (max_fir_macs >= static_cast<std::size_t>(opt.fft_crossover_macs)) return;
  emit(out, info, prefix + ".dsp",
       "widest FIR stage runs " + std::to_string(max_fir_macs) +
           " MACs/sample, below the ~" +
           std::to_string(opt.fft_crossover_macs) +
           " MACs/sample FFT crossover — the direct kernel runs either way "
           "and dsp only costs the (benign) waveform LSB contract",
       "drop dsp for short-FIR channels; the exact kernels are already "
       "optimal there");
}

void check_block_exceeds_chunk(const api::LinkSpec& spec,
                               const std::string& prefix,
                               const Linter::Options& opt, const RuleInfo& info,
                               std::vector<Finding>& out) {
  (void)opt;
  const double chunk_samples =
      static_cast<double>(std::min(spec.chunk_bits, spec.payload_bits)) *
      static_cast<double>(spec.samples_per_ui);
  if (static_cast<double>(spec.stream_block_samples) < chunk_samples) return;
  emit(out, info, prefix + ".stream_block_samples",
       "one streaming block (" + std::to_string(spec.stream_block_samples) +
           " samples) covers the whole chunk (" + num(chunk_samples) +
           " samples), so the O(block) memory pipeline degenerates to "
           "O(chunk) memory",
       "lower stream_block_samples below the chunk size (results are "
       "invariant to it) or raise chunk_bits");
}

void check_cdr_window_exceeds_preamble(const api::LinkSpec& spec,
                                       const std::string& prefix,
                                       const Linter::Options& opt,
                                       const RuleInfo& info,
                                       std::vector<Finding>& out) {
  (void)opt;
  if (spec.cdr_window_uis <= spec.preamble_bits) return;
  emit(out, info, prefix + ".cdr_window_uis",
       "the CDR phase-pick window (" + std::to_string(spec.cdr_window_uis) +
           " UIs) is longer than the preamble (" +
           std::to_string(spec.preamble_bits) +
           " bits), so lock acquisition extends into payload bits and early "
           "payload errors are likely",
       "shorten cdr_window_uis or lengthen preamble_bits past it");
}

void check_excessive_jitter(const api::LinkSpec& spec,
                            const std::string& prefix,
                            const Linter::Options& opt, const RuleInfo& info,
                            std::vector<Finding>& out) {
  if (spec.bit_rate_hz <= 0.0) return;
  const double ui = 1.0 / spec.bit_rate_hz;
  const double total = 3.0 * spec.random_jitter_s + spec.sinusoidal_jitter_s;
  if (total <= opt.max_jitter_fraction_ui * ui) return;
  const bool rj_dominant = 3.0 * spec.random_jitter_s >= spec.sinusoidal_jitter_s;
  emit(out, info,
       prefix + (rj_dominant ? ".random_jitter_s" : ".sinusoidal_jitter_s"),
       "total sampling jitter (3*RJ + SJ = " + num(total) + " s) exceeds " +
           num(opt.max_jitter_fraction_ui) + " UI (" +
           num(opt.max_jitter_fraction_ui * ui) +
           " s) — the CDR is unlikely to hold lock and BER will be "
           "jitter-dominated",
       "reduce the jitter terms or slow bit_rate_hz");
}

void check_ineffective_field(const api::LinkSpec& spec,
                             const std::string& prefix,
                             const Linter::Options& opt, const RuleInfo& info,
                             std::vector<Finding>& out) {
  (void)opt;
  const api::LinkSpec defaults{};
  if (spec.sinusoidal_jitter_s == 0.0 &&
      spec.sj_freq_ratio != defaults.sj_freq_ratio) {
    emit(out, info, prefix + ".sj_freq_ratio",
         "sj_freq_ratio is set but sinusoidal_jitter_s is 0, so the value is "
         "never read",
         "set sinusoidal_jitter_s or drop sj_freq_ratio");
  }
  if (spec.rx_ctle_boost_db == 0.0 &&
      spec.rx_ctle_pole_hz != defaults.rx_ctle_pole_hz) {
    emit(out, info, prefix + ".rx_ctle_pole_hz",
         "rx_ctle_pole_hz is set but rx_ctle_boost_db is 0 (CTLE disabled), "
         "so the value is never read",
         "set rx_ctle_boost_db or drop rx_ctle_pole_hz");
  }
  if (spec.analysis == "mc" &&
      spec.stat_target_ber != defaults.stat_target_ber) {
    emit(out, info, prefix + ".stat_target_ber",
         "stat_target_ber is set but analysis is \"mc\", so the stat engine "
         "never runs and the target is never read",
         "use analysis \"stat\" or \"both\", or drop stat_target_ber");
  }
  if (spec.lane_batch > 1 && !api::Simulator::tile_eligible(spec)) {
    emit(out, info, prefix + ".lane_batch",
         "lane_batch is set but lane tiling needs Monte Carlo execution "
         "with fixed EQ (analysis \"mc\", eq \"fixed\"), so every lane "
         "runs as its own link anyway",
         "use fixed EQ with analysis \"mc\", or drop lane_batch");
  }
}

void check_chunk_exceeds_payload(const api::LinkSpec& spec,
                                 const std::string& prefix,
                                 const Linter::Options& opt,
                                 const RuleInfo& info,
                                 std::vector<Finding>& out) {
  (void)opt;
  if (spec.chunk_bits <= spec.payload_bits) return;
  emit(out, info, prefix + ".chunk_bits",
       "chunk_bits (" + std::to_string(spec.chunk_bits) +
           ") exceeds payload_bits (" + std::to_string(spec.payload_bits) +
           "): the run is one short chunk and fresh-noise chunking is inert",
       "set chunk_bits <= payload_bits (or raise the payload)");
}

void check_pam4_insufficient_swing(const api::LinkSpec& spec,
                                   const std::string& prefix,
                                   const Linter::Options& opt,
                                   const RuleInfo& info,
                                   std::vector<Finding>& out) {
  if (spec.modulation != "pam4" || spec.noise_rms_v <= 0.0) return;
  // The NRZ zero-ISI bound, with the amplitude split into three stacked
  // sub-eyes: each eye spans a third of the dc-attenuated swing, so the
  // slicer sees a sixth of it against the full noise sigma.
  const double amplitude = 0.5 * opt.nominal_swing_v *
                           std::pow(10.0, -estimated_dc_loss_db(spec.channel) /
                                              20.0);
  const double eye_third = amplitude / 3.0;
  const double q_available = eye_third / spec.noise_rms_v;
  const double q_required = util::q_inverse(spec.stat_target_ber);
  if (q_available >= q_required) return;
  emit(out, info, prefix + ".modulation",
       "pam4 splits the " + num(amplitude) +
           " V zero-ISI amplitude into three " + num(eye_third) +
           " V sub-eyes — Q = " + num(q_available) + " against " +
           num(spec.noise_rms_v) + " V rms noise, but BER " +
           num(spec.stat_target_ber) + " needs Q >= " + num(q_required),
       "lower the channel loss / noise_rms_v, relax stat_target_ber, or "
       "keep nrz at this operating point");
}

void check_trained_eq_with_fixed_knobs(const api::LinkSpec& spec,
                                       const std::string& prefix,
                                       const Linter::Options& opt,
                                       const RuleInfo& info,
                                       std::vector<Finding>& out) {
  (void)opt;
  if (spec.eq != "trained") return;
  std::vector<std::string> knobs;
  if (spec.tx_ffe_deemphasis != 0.0) knobs.emplace_back("tx_ffe_deemphasis");
  if (spec.rx_ctle_boost_db != 0.0) knobs.emplace_back("rx_ctle_boost_db");
  if (!spec.dfe_taps.empty()) knobs.emplace_back("dfe_taps");
  if (knobs.empty()) return;
  std::string listed = knobs.front();
  for (std::size_t i = 1; i < knobs.size(); ++i) listed += ", " + knobs[i];
  emit(out, info, prefix + ".eq",
       "eq \"trained\" adapts the equalizer from the training preamble, so "
       "the authored " +
           listed +
           (knobs.size() == 1 ? " value is" : " values are") +
           " only the search's starting point — the converged settings in "
           "RunReport.training are what the payload actually runs with",
       "drop the fixed EQ knobs (training finds them), or use eq \"fixed\" "
       "if these exact values must bind");
}

// ---- Bus-level rules -------------------------------------------------

std::string matrix_cell(const char* field, std::size_t row, std::size_t col) {
  return "$." + std::string(field) + "[" + std::to_string(row) + "][" +
         std::to_string(col) + "]";
}

void check_coupling_asymmetry(const api::BusSpec& bus,
                              const Linter::Options& opt, const RuleInfo& info,
                              std::vector<Finding>& out) {
  (void)opt;
  const auto scan = [&](const std::vector<std::vector<double>>& m,
                        const char* field) {
    for (std::size_t i = 0; i < m.size(); ++i) {
      for (std::size_t j = i + 1; j < m[i].size(); ++j) {
        if (j >= m.size() || i >= m[j].size()) continue;  // shape lints apart
        if (m[i][j] == m[j][i]) continue;
        emit(out, info, matrix_cell(field, j, i),
             std::string(field) + "[" + std::to_string(i) + "][" +
                 std::to_string(j) + "] = " + num(m[i][j]) + " but " + field +
                 "[" + std::to_string(j) + "][" + std::to_string(i) + "] = " +
                 num(m[j][i]) +
                 " — crosstalk between one physical lane pair is reciprocal, "
                 "so direction-dependent gains usually encode a typo",
             "mirror the off-diagonal terms (or keep the asymmetry only if "
             "the geometry really is one-directional)");
      }
    }
  };
  scan(bus.coupling, "coupling");
  scan(bus.next_coupling, "next_coupling");
}

void check_self_coupling(const api::BusSpec& bus, const Linter::Options& opt,
                         const RuleInfo& info, std::vector<Finding>& out) {
  (void)opt;
  const auto scan = [&](const std::vector<std::vector<double>>& m,
                        const char* field) {
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (i >= m[i].size() || m[i][i] == 0.0) continue;
      emit(out, info, matrix_cell(field, i, i),
           "lane " + std::to_string(i) + " lists itself as an aggressor (" +
               field + " diagonal = " + num(m[i][i]) +
               "); a lane cannot aggress itself, so the runtime skips the "
               "diagonal and the value is never read",
           "zero the diagonal — per-lane impairments belong in the lane's "
           "own channel / noise fields");
    }
  };
  scan(bus.coupling, "coupling");
  scan(bus.next_coupling, "next_coupling");
}

// ---- Grid-level rules ------------------------------------------------

void check_degenerate_axis(const sweep::SweepSpec& sweep,
                           const Linter::Options& opt, const RuleInfo& info,
                           std::vector<Finding>& out) {
  (void)opt;
  for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
    if (sweep.axes[a].values.size() != 1) continue;
    emit(out, info, "$.axes[" + std::to_string(a) + "].values",
         "axis over '" + sweep.axes[a].field +
             "' expands to a single value — it multiplies the grid by 1 and "
             "sweeps nothing",
         "fold the value into the base spec or add the missing values");
  }
}

void check_duplicate_axis_value(const sweep::SweepSpec& sweep,
                                const Linter::Options& opt,
                                const RuleInfo& info,
                                std::vector<Finding>& out) {
  (void)opt;
  for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
    const auto& values = sweep.axes[a].values;
    for (std::size_t j = 1; j < values.size(); ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        if (values[i] != values[j]) continue;
        emit(out, info,
             "$.axes[" + std::to_string(a) + "].values[" + std::to_string(j) +
                 "]",
             "duplicate of values[" + std::to_string(i) + "] on axis '" +
                 sweep.axes[a].field +
                 "' — the duplicated scenarios recompute the same point and "
                 "skew every aggregate surface",
             "remove the duplicate value");
        break;  // one finding per duplicated value
      }
    }
  }
}

void check_grid_budget(const sweep::SweepSpec& sweep,
                       const Linter::Options& opt, const RuleInfo& info,
                       std::vector<Finding>& out) {
  const std::uint64_t total = sweep.scenario_count();
  if (total <= opt.grid_budget) return;
  emit(out, info, "$.axes",
       "grid expands to " + std::to_string(total) +
           " scenarios, past the " + std::to_string(opt.grid_budget) +
           "-cell single-process budget",
       "shard the sweep (serdes_cli sweep --shard k/n) or split the axes");
}

void check_shared_seed_grid(const sweep::SweepSpec& sweep,
                            const Linter::Options& opt, const RuleInfo& info,
                            std::vector<Finding>& out) {
  (void)opt;
  if (sweep.derive_seeds || sweep.scenario_count() <= 1) return;
  bool seed_axis = false;
  for (const auto& axis : sweep.axes) seed_axis |= axis.field == "seed";
  if (seed_axis) return;  // the axis varies the seed explicitly
  emit(out, info, "$.derive_seeds",
       "derive_seeds = false makes all " +
           std::to_string(sweep.scenario_count()) +
           " scenarios face the identical noise realization — correct for "
           "paired ablations, statistically wrong for surface estimates",
       "drop derive_seeds (grid-index seeding is the default) unless this "
       "sweep is a paired ablation");
}

void check_seed_collision(const sweep::SweepSpec& sweep,
                          const Linter::Options& opt, const RuleInfo& info,
                          std::vector<Finding>& out) {
  if (!sweep.derive_seeds) return;
  const std::uint64_t total = sweep.scenario_count();
  if (total <= 1 || total > opt.seed_check_limit) return;
  // Per-scenario base seed: the "seed" axis value when one exists (the
  // same row-major decode scenario() applies), else the base spec's.
  std::optional<std::size_t> seed_axis;
  for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
    if (sweep.axes[a].field == "seed") seed_axis = a;
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> derived;  // seed, index
  derived.reserve(static_cast<std::size_t>(total));
  for (std::uint64_t i = 0; i < total; ++i) {
    std::uint64_t base = sweep.base.seed;
    if (seed_axis) {
      const Json& v = sweep.axes[*seed_axis]
                          .values[sweep::axis_value_index(sweep, *seed_axis, i)];
      if (!v.is_number()) return;  // validate() already rejects this sweep
      base = v.as_uint();
    }
    derived.emplace_back(sweep::derive_scenario_seed(base, i), i);
  }
  std::sort(derived.begin(), derived.end());
  for (std::size_t i = 1; i < derived.size(); ++i) {
    if (derived[i].first != derived[i - 1].first) continue;
    const std::string anchor =
        seed_axis ? "$.axes[" + std::to_string(*seed_axis) + "].values"
                  : "$.base.seed";
    emit(out, info, anchor,
         "scenarios " + std::to_string(derived[i - 1].second) + " and " +
             std::to_string(derived[i].second) +
             " derive the identical per-scenario seed " +
             std::to_string(derived[i].first) +
             " — they run the same noise stream and the grid silently loses "
             "an independent sample",
         "perturb the seed values so the splitmix64 derivations stay "
         "distinct");
    return;  // the first collision localizes the problem
  }
}

void check_store_key_collision(const sweep::SweepSpec& sweep,
                               const Linter::Options& opt, const RuleInfo& info,
                               std::vector<Finding>& out) {
  // With derive_seeds on, every cell's seed embeds its grid index, so
  // expanded specs — and therefore their content hashes — stay distinct.
  if (sweep.derive_seeds) return;
  const std::uint64_t total = sweep.scenario_count();
  if (total <= 1 || total > opt.store_key_check_limit) return;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> hashes;  // hash, index
  hashes.reserve(static_cast<std::size_t>(total));
  for (std::uint64_t i = 0; i < total; ++i) {
    hashes.emplace_back(api::spec_content_hash(sweep.scenario(i)), i);
  }
  std::sort(hashes.begin(), hashes.end());
  for (std::size_t i = 1; i < hashes.size(); ++i) {
    if (hashes[i].first != hashes[i - 1].first) continue;
    emit(out, info, "$.derive_seeds",
         "scenarios " + std::to_string(hashes[i - 1].second) + " and " +
             std::to_string(hashes[i].second) +
             " expand to content-identical specs — their result-store keys "
             "collide, so a resumable sweep caches one cell's row for both "
             "and the grid silently double-counts a single simulation",
         "re-enable derive_seeds (grid-index seeding keys every cell apart) "
         "or remove the duplicate grid cell");
    return;  // the first collision localizes the problem
  }
}

// ---- Registry --------------------------------------------------------

using LinkCheck = void (*)(const api::LinkSpec&, const std::string&,
                           const Linter::Options&, const RuleInfo&,
                           std::vector<Finding>&);
using SweepCheck = void (*)(const sweep::SweepSpec&, const Linter::Options&,
                            const RuleInfo&, std::vector<Finding>&);
using BusCheck = void (*)(const api::BusSpec&, const Linter::Options&,
                          const RuleInfo&, std::vector<Finding>&);

struct RuleDef {
  RuleInfo info;
  LinkCheck link = nullptr;
  SweepCheck sweep = nullptr;
  BusCheck bus = nullptr;
};

const std::vector<RuleDef>& rule_defs() {
  static const std::vector<RuleDef> kRules = {
      {{"underpowered-cross-check", Severity::kWarning,
        "analysis \"both\" with too few MC bits to power the stat "
        "cross-check"},
       &check_underpowered_cross_check, nullptr},
      {{"unreachable-stat-target", Severity::kWarning,
        "noise/loss budget puts stat_target_ber past the zero-ISI "
        "structural bound"},
       &check_unreachable_stat_target, nullptr},
      {{"stat-grid-fallback", Severity::kWarning,
        "channel memory forces the stat engine off exact ISI enumeration "
        "onto the grid fallback"},
       &check_stat_grid_fallback, nullptr},
      {{"dsp-inert", Severity::kWarning,
        "dsp = true but no channel stage the block-convolution engine "
        "accelerates"},
       &check_dsp_inert, nullptr},
      {{"dsp-below-crossover", Severity::kInfo,
        "dsp = true but every FIR stage sits below the FFT crossover"},
       &check_dsp_below_crossover, nullptr},
      {{"block-exceeds-chunk", Severity::kInfo,
        "streaming block covers the whole chunk — O(block) memory benefit "
        "lost"},
       &check_block_exceeds_chunk, nullptr},
      {{"cdr-window-exceeds-preamble", Severity::kWarning,
        "CDR lock window longer than the preamble"},
       &check_cdr_window_exceeds_preamble, nullptr},
      {{"excessive-jitter", Severity::kWarning,
        "total sampling jitter above the lockable fraction of one UI"},
       &check_excessive_jitter, nullptr},
      {{"ineffective-field", Severity::kInfo,
        "field is set but gated off by another field, so it is never read"},
       &check_ineffective_field, nullptr},
      {{"chunk-exceeds-payload", Severity::kInfo,
        "chunk_bits above payload_bits — fresh-noise chunking inert"},
       &check_chunk_exceeds_payload, nullptr},
      {{"degenerate-axis", Severity::kWarning,
        "sweep axis expands to a single value", /*sweep_only=*/true},
       nullptr, &check_degenerate_axis},
      {{"duplicate-axis-value", Severity::kWarning,
        "identical values repeated within one axis", /*sweep_only=*/true},
       nullptr, &check_duplicate_axis_value},
      {{"grid-budget", Severity::kWarning,
        "grid exceeds the single-process scenario budget",
        /*sweep_only=*/true},
       nullptr, &check_grid_budget},
      {{"shared-seed-grid", Severity::kWarning,
        "derive_seeds off: every scenario shares one noise realization",
        /*sweep_only=*/true},
       nullptr, &check_shared_seed_grid},
      {{"seed-collision", Severity::kError,
        "two scenarios derive the identical per-scenario seed",
        /*sweep_only=*/true},
       nullptr, &check_seed_collision},
      {{"store-key-collision", Severity::kWarning,
        "derive_seeds off: two grid cells share one result-store key",
        /*sweep_only=*/true},
       nullptr, &check_store_key_collision},
      {{"pam4-insufficient-swing", Severity::kWarning,
        "pam4 sub-eyes structurally too small for the noise budget at "
        "stat_target_ber"},
       &check_pam4_insufficient_swing, nullptr},
      {{"trained-eq-with-fixed-knobs", Severity::kWarning,
        "eq \"trained\" demotes the authored EQ knobs to mere starting "
        "points"},
       &check_trained_eq_with_fixed_knobs, nullptr},
      {{"coupling-matrix-asymmetry", Severity::kWarning,
        "FEXT/NEXT gain between one lane pair differs by direction",
        /*sweep_only=*/false, /*bus_only=*/true},
       nullptr, nullptr, &check_coupling_asymmetry},
      {{"self-coupling", Severity::kWarning,
        "nonzero coupling-matrix diagonal — a lane cannot aggress itself",
        /*sweep_only=*/false, /*bus_only=*/true},
       nullptr, nullptr, &check_self_coupling},
  };
  return kRules;
}

/// Does `path` name `member` or something nested within it (or vice
/// versa)?  Boundary-aware, so "channel" covers "channel.stages[0]" but
/// not "channel_x".
bool paths_overlap(const std::string& a, const std::string& b) {
  const auto prefixed = [](const std::string& outer, const std::string& inner) {
    if (inner.size() <= outer.size() ||
        inner.compare(0, outer.size(), outer) != 0) {
      return false;
    }
    const char next = inner[outer.size()];
    return next == '.' || next == '[';
  };
  return a == b || prefixed(a, b) || prefixed(b, a);
}

}  // namespace

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kInfos = [] {
    std::vector<RuleInfo> infos;
    infos.reserve(rule_defs().size());
    for (const auto& def : rule_defs()) infos.push_back(def.info);
    return infos;
  }();
  return kInfos;
}

LintReport Linter::lint(const api::LinkSpec& spec,
                        const std::string& path) const {
  LintReport report;
  report.subject = spec.name;
  report.kind = "link";
  for (const auto& def : rule_defs()) {
    if (def.link) def.link(spec, path, options_, def.info, report.findings);
  }
  return report;
}

LintReport Linter::lint(const sweep::SweepSpec& sweep) const {
  LintReport report;
  report.subject = sweep.name;
  report.kind = "sweep";
  // Base-spec findings whose anchor an axis overwrites are dropped: the
  // axis, not the base value, decides what each scenario sees (e.g. a
  // dsp axis over a base with dsp = true).
  const LintReport base = lint(sweep.base, "$.base");
  for (const auto& finding : base.findings) {
    bool overridden = false;
    for (const auto& axis : sweep.axes) {
      overridden |= paths_overlap(finding.path, "$.base." + axis.field);
    }
    if (!overridden) report.findings.push_back(finding);
  }
  for (const auto& def : rule_defs()) {
    if (def.sweep) def.sweep(sweep, options_, def.info, report.findings);
  }
  return report;
}

LintReport Linter::lint(const api::BusSpec& bus) const {
  LintReport report;
  report.subject = bus.name;
  report.kind = "bus";
  // Base-spec findings whose anchor every lane's override overwrites would
  // blame a value no lane sees; any lane still reading the base value keeps
  // the finding, so suppression needs the override on *all* lanes.  With
  // fewer override objects than lanes the uncovered lanes read the base.
  const LintReport base = lint(bus.base, "$.base");
  for (const auto& finding : base.findings) {
    bool overridden_everywhere =
        bus.overrides.size() >= static_cast<std::size_t>(bus.lanes) &&
        bus.lanes > 0;
    if (overridden_everywhere) {
      for (int lane = 0; lane < bus.lanes; ++lane) {
        const Json& ov = bus.overrides[static_cast<std::size_t>(lane)];
        bool covered = false;
        if (ov.is_object()) {
          for (const auto& [key, value] : ov.as_object()) {
            (void)value;
            covered |= paths_overlap(finding.path, "$.base." + key);
          }
        }
        if (!covered) {
          overridden_everywhere = false;
          break;
        }
      }
    }
    if (!overridden_everywhere) report.findings.push_back(finding);
  }
  for (const auto& def : rule_defs()) {
    if (def.bus) def.bus(bus, options_, def.info, report.findings);
  }
  return report;
}

Json to_json(const LintReport& report) {
  Json j = Json::object();
  j.set("schema_version", report.schema_version);
  j.set("subject", report.subject);
  j.set("kind", report.kind);
  Json counts = Json::object();
  counts.set("error", static_cast<std::uint64_t>(
                          report.count(Severity::kError)));
  counts.set("warning", static_cast<std::uint64_t>(
                            report.count(Severity::kWarning)));
  counts.set("info",
             static_cast<std::uint64_t>(report.count(Severity::kInfo)));
  j.set("counts", std::move(counts));
  Json findings = Json::array();
  for (const auto& f : report.findings) {
    Json fj = Json::object();
    fj.set("rule", f.rule);
    fj.set("severity", std::string(to_string(f.severity)));
    fj.set("path", f.path);
    fj.set("message", f.message);
    fj.set("hint", f.hint);
    findings.push_back(std::move(fj));
  }
  j.set("findings", std::move(findings));
  return j;
}

LintReport lint_report_from_json(const Json& json, const std::string& path) {
  if (!json.is_object()) util::fail_at(path, "expected lint report object");
  LintReport report;
  report.schema_version = 1;  // absent means version 1
  const Json* counts = nullptr;
  for (const auto& [key, value] : json.as_object()) {
    const std::string p = path + "." + key;
    if (key == "schema_version") {
      report.schema_version = static_cast<int>(util::get_int(value, p));
    } else if (key == "subject") {
      report.subject = util::get_string(value, p);
    } else if (key == "kind") {
      report.kind = util::get_string(value, p);
      if (report.kind != "link" && report.kind != "sweep" &&
          report.kind != "bus") {
        util::fail_at(p, "kind must be 'link', 'sweep' or 'bus'");
      }
    } else if (key == "counts") {
      if (!value.is_object()) util::fail_at(p, "expected counts object");
      counts = &value;
    } else if (key == "findings") {
      if (!value.is_array()) util::fail_at(p, "expected array of findings");
      for (std::size_t i = 0; i < value.as_array().size(); ++i) {
        const Json& fj = value.as_array()[i];
        const std::string fp = p + "[" + std::to_string(i) + "]";
        if (!fj.is_object()) util::fail_at(fp, "expected finding object");
        Finding f;
        for (const auto& [fkey, fvalue] : fj.as_object()) {
          const std::string ffp = fp + "." + fkey;
          if (fkey == "rule") {
            f.rule = util::get_string(fvalue, ffp);
          } else if (fkey == "severity") {
            f.severity =
                severity_from_string(util::get_string(fvalue, ffp), ffp);
          } else if (fkey == "path") {
            f.path = util::get_string(fvalue, ffp);
          } else if (fkey == "message") {
            f.message = util::get_string(fvalue, ffp);
          } else if (fkey == "hint") {
            f.hint = util::get_string(fvalue, ffp);
          } else {
            util::fail_at(ffp, "unknown Finding field '" + fkey + "'");
          }
        }
        report.findings.push_back(std::move(f));
      }
    } else {
      util::fail_at(p, "unknown LintReport field '" + key + "'");
    }
  }
  if (counts) {
    // Strictness: checked-in artifacts whose counts drifted from their
    // findings are corrupt, not quietly reinterpretable.
    const auto check = [&](const char* key, Severity severity) {
      const Json* v = counts->find(key);
      if (v == nullptr) util::fail_at(path + ".counts", std::string(key) + " is missing");
      if (util::get_uint(*v, path + ".counts." + key) !=
          report.count(severity)) {
        util::fail_at(path + ".counts." + key,
                      "count disagrees with the findings array");
      }
    };
    check("error", Severity::kError);
    check("warning", Severity::kWarning);
    check("info", Severity::kInfo);
  }
  return report;
}

int estimated_isi_cursors(const api::ChannelSpec& channel, double bit_rate_hz,
                          int samples_per_ui) {
  if (bit_rate_hz <= 0.0 || samples_per_ui <= 0) return 0;
  const double ui = 1.0 / bit_rate_hz;
  if (channel.kind == "fir") {
    if (channel.fir_taps.size() <= 1) return 0;
    const int spt = channel.fir_samples_per_tap > 0
                        ? channel.fir_samples_per_tap
                        : samples_per_ui;
    const double span_uis =
        static_cast<double>(channel.fir_taps.size() - 1) *
        static_cast<double>(spt) / static_cast<double>(samples_per_ui);
    return static_cast<int>(std::ceil(span_uis));
  }
  if (channel.kind == "rc") {
    if (channel.pole_hz <= 0.0) return 0;
    // Single pole: the tail decays below 1e-4 after ln(1e4) time
    // constants.
    const double tau = 1.0 / (2.0 * 3.14159265358979323846 * channel.pole_hz);
    return static_cast<int>(std::ceil(std::log(1e4) * tau / ui));
  }
  if (channel.kind == "lossy_line") {
    // Coarse heuristic: every ~6 dB of high-frequency rolloff at Nyquist
    // smears roughly one additional UI of channel memory.
    const double f_ghz = bit_rate_hz / 2.0 / 1e9;
    if (f_ghz <= 0.0) return 0;
    const double hf_db = channel.skin_loss_db_at_1ghz * std::sqrt(f_ghz) +
                         channel.dielectric_loss_db_at_1ghz * f_ghz;
    return hf_db <= 0.0 ? 0 : static_cast<int>(std::ceil(hf_db / 6.0));
  }
  if (channel.kind == "composite") {
    int total = 0;
    for (const auto& stage : channel.stages) {
      total += estimated_isi_cursors(stage, bit_rate_hz, samples_per_ui);
    }
    return total;
  }
  return 0;  // flat / unknown kinds: memoryless as far as lint can tell
}

double estimated_dc_loss_db(const api::ChannelSpec& channel) {
  if (channel.kind == "fir") {
    double sum = 0.0;
    for (const double t : channel.fir_taps) sum += t;
    if (sum == 0.0) return 200.0;  // dc null: effectively infinite loss
    return -20.0 * std::log10(std::fabs(sum));
  }
  if (channel.kind == "composite") {
    double total = 0.0;
    for (const auto& stage : channel.stages) {
      total += estimated_dc_loss_db(stage);
    }
    return total;
  }
  // flat / rc / lossy_line all carry their dc term in loss_db; unknown
  // kinds read as lossless rather than guessing.
  if (channel.kind == "flat" || channel.kind == "rc" ||
      channel.kind == "lossy_line") {
    return channel.loss_db;
  }
  return 0.0;
}

}  // namespace serdes::lint
