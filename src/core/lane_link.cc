#include "core/lane_link.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/link.h"

namespace serdes::core {

LaneLink::LaneLink(const LinkConfig& config,
                   std::unique_ptr<channel::Channel> ch,
                   std::vector<std::uint64_t> lane_seeds)
    : config_(config),
      tx_(config),
      rx_(config),
      channel_(std::move(ch)),
      lane_seeds_(std::move(lane_seeds)),
      chunks_run_(lane_seeds_.size(), 0) {
  if (!channel_) throw std::invalid_argument("LaneLink: null channel");
  if (lane_seeds_.empty()) {
    throw std::invalid_argument("LaneLink: need at least one lane seed");
  }
}

std::vector<LaneOutcome> LaneLink::measure(std::uint64_t total_bits,
                                           std::uint64_t chunk_bits,
                                           double confidence_level,
                                           util::PrbsOrder order) {
  const std::size_t n_lanes = lane_seeds_.size();
  std::vector<LaneOutcome> out(n_lanes);
  for (LaneOutcome& o : out) o.measurement.confidence_level = confidence_level;
  std::vector<util::PrbsGenerator> prbs(n_lanes, util::PrbsGenerator(order));
  // Total PRBS bits drawn per lane.  Lanes at the same count have
  // identical generator state (every lane draws the same sequence), so
  // one payload serves all of them; lanes diverge only when alignment
  // failures make a lane re-run footage its neighbours already passed.
  std::vector<std::uint64_t> drawn(n_lanes, 0);
  for (;;) {
    struct Group {
      std::uint64_t drawn;
      std::uint64_t bits;
      std::vector<std::size_t> lanes;
    };
    std::vector<Group> groups;  // insertion-ordered: deterministic sweeps
    for (std::size_t l = 0; l < n_lanes; ++l) {
      // Footage by bits *sent* (drawn), matching measure_ber: an aligned
      // chunk may compare fewer bits than it carried (the CDR tail
      // allowance), and a residual micro-chunk could never align.
      if (drawn[l] >= total_bits) continue;
      const std::uint64_t nb = std::min(chunk_bits, total_bits - drawn[l]);
      Group* group = nullptr;
      for (Group& cand : groups) {
        if (cand.drawn == drawn[l] && cand.bits == nb) {
          group = &cand;
          break;
        }
      }
      if (group == nullptr) {
        groups.push_back(Group{drawn[l], nb, {}});
        group = &groups.back();
      }
      group->lanes.push_back(l);
    }
    if (groups.empty()) break;
    for (Group& group : groups) {
      // Generate the shared payload from the first lane's generator and
      // advance the others past the same footage.
      const auto payload = prbs[group.lanes[0]].next_bits(
          static_cast<std::size_t>(group.bits));
      for (std::size_t i = 1; i < group.lanes.size(); ++i) {
        (void)prbs[group.lanes[i]].next_bits(
            static_cast<std::size_t>(group.bits));
      }
      // drawn == 0 <=> the lane's first chunk, which carries diagnostics
      // (and waveform capture when the config asks for it), exactly like
      // a single link's first-chunk observer.  Each lane keeps its own
      // run counter, so its AWGN seed sequence is a single link's.
      const bool first_chunk = group.drawn == 0;
      std::vector<std::uint64_t> seeds;
      std::vector<std::uint64_t> awgn_seeds;
      for (const std::size_t lane : group.lanes) {
        seeds.push_back(lane_seeds_[lane]);
        awgn_seeds.push_back(lane_seeds_[lane] + 100 + chunks_run_[lane]++);
      }
      std::vector<LinkResult> results = run_link_tile(
          config_, tx_, rx_, *channel_, payload, seeds, awgn_seeds,
          config_.capture_waveforms && first_chunk);
      for (std::size_t i = 0; i < group.lanes.size(); ++i) {
        const std::size_t lane = group.lanes[i];
        LinkResult& r = results[i];
        if (first_chunk) {
          LaneOutcome& o = out[lane];
          o.cdr_decision_phase = r.rx.cdr_decision_phase;
          o.cdr_phase_updates = r.rx.cdr_phase_updates;
          o.rx_swing_pp = r.rx_swing_pp;
          o.decision_threshold = r.decision_threshold;
          o.tx_out = std::move(r.tx_out);
          o.channel_out = std::move(r.channel_out);
          o.rfi_out = std::move(r.rx.rfi_out);
          o.restored = std::move(r.rx.restored);
        }
        BerMeasurement& m = out[lane].measurement;
        if (!r.aligned) {
          // Alignment failure: every payload bit in the chunk is lost
          // (measure_ber's accounting).
          m.aligned = false;
          m.errors += group.bits;
          m.bits += group.bits;
        } else {
          m.bits += r.payload_bits_compared;
          m.errors += r.bit_errors;
        }
        drawn[lane] += group.bits;
      }
    }
  }
  for (LaneOutcome& o : out) {
    BerMeasurement& m = o.measurement;
    if (m.bits > 0) {
      m.ber = static_cast<double>(m.errors) / static_cast<double>(m.bits);
    }
    m.ber_upper_bound = ber_upper_bound(m.bits, m.errors, confidence_level);
  }
  return out;
}

}  // namespace serdes::core
