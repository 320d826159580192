#include "core/lane_link.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/link.h"
#include "pipe/lane_stages.h"
#include "pipe/stages.h"

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

void LaneLink::run_chunk(const std::vector<std::uint8_t>& payload,
                         const std::vector<std::size_t>& lanes, bool capture,
                         std::vector<LinkResult>& results) {
  const std::size_t nl = lanes.size();
  results.assign(nl, LinkResult{});
  std::vector<std::uint64_t> awgn_seeds(nl);
  std::vector<std::uint64_t> seeds(nl);
  for (std::size_t i = 0; i < nl; ++i) {
    seeds[i] = lane_seeds_[lanes[i]];
    // The scalar link derives one AWGN seed per run from its run counter;
    // each lane keeps its own counter so the sequence matches per lane.
    awgn_seeds[i] = seeds[i] + 100 + chunks_run_[lanes[i]]++;
  }
  for (LinkResult& r : results) r.payload_bits_sent = payload.size();

  // The shared TX launch source (lane-invariant, built once per tile).
  pipe::LevelPulseSource source = SerDesLink::launch(config_, tx_, payload);
  const std::uint64_t total = source.total_samples();
  const std::size_t block =
      std::max<std::size_t>(1, config_.stream_block_samples);
  const double sigma = per_sample_noise_sigma(config_);
  const bool use_ctle = config_.rx_ctle_boost.value() > 0.0;
  const std::size_t capture_cap = config_.capture_max_samples > 0
                                      ? config_.capture_max_samples
                                      : static_cast<std::size_t>(-1);

  // ---- Pass 1: per-lane DC mean and swing over the receiver input ----------
  // The scalar path's first pass, lane-batched: the shared TX + channel
  // front runs once, the AWGN fan-out and optional CTLE run per lane, and
  // the mean accumulates per lane in sample order (the exact
  // Waveform::mean_value() sum for that lane's stream).
  std::vector<double> sum(nl, 0.0);
  std::vector<double> min_v(nl, std::numeric_limits<double>::infinity());
  std::vector<double> max_v(nl, -std::numeric_limits<double>::infinity());
  {
    pipe::ChannelStage chan(channel_->open_stream());
    pipe::LaneAwgnStage awgn(sigma, awgn_seeds);
    std::optional<pipe::LaneCtleStage> ctle;
    if (use_ctle) {
      ctle.emplace(config_.rx_ctle_boost, config_.rx_ctle_pole,
                   config_.sample_period(), nl);
    }
    pipe::Block blk;
    pipe::Block chan_blk;
    pipe::LaneBlock noisy;
    pipe::LaneBlock eq;
    while (source.produce(blk, block) > 0) {
      chan.process(blk.view(), chan_blk);
      awgn.process(chan_blk.view(), noisy);
      const pipe::LaneView nv = noisy.view();
      for (std::size_t i = 0; i < nv.size; ++i) {
        const double* row = nv.data + i * nl;
        for (std::size_t l = 0; l < nl; ++l) {
          min_v[l] = std::min(min_v[l], row[l]);
          max_v[l] = std::max(max_v[l], row[l]);
        }
      }
      pipe::LaneView ev = nv;
      if (ctle) {
        ctle->process(nv, eq);
        ev = eq.view();
      }
      for (std::size_t i = 0; i < ev.size; ++i) {
        const double* row = ev.data + i * nl;
        for (std::size_t l = 0; l < nl; ++l) sum[l] += row[l];
      }
    }
  }
  std::vector<double> mean(nl, 0.0);
  for (std::size_t i = 0; i < nl; ++i) {
    results[i].rx_swing_pp = total > 0 ? max_v[i] - min_v[i] : 0.0;
    mean[i] = total > 0 ? sum[i] / static_cast<double>(total) : 0.0;
  }

  // ---- Pass 2: full datapath into the lane sampler/CDR sink ----------------
  source.reset();
  pipe::ChannelStage chan(channel_->open_stream());
  pipe::LaneAwgnStage awgn(sigma, awgn_seeds);
  std::optional<pipe::LaneCtleStage> ctle;
  if (use_ctle) {
    ctle.emplace(config_.rx_ctle_boost, config_.rx_ctle_pole,
                 config_.sample_period(), nl);
  }
  pipe::LaneRfiStage rfi(rx_.rfi_stage(), config_.sample_period(), nl);
  for (std::size_t i = 0; i < nl; ++i) rfi.set_mean(i, mean[i]);
  pipe::LaneRestoreStage restore(rx_.restoring(), config_.sample_period(), nl);
  // Scalar capture points: tx pre-channel (lane-invariant, shared buffer),
  // channel post-AWGN (per lane), restored (per lane).
  std::optional<pipe::LaneWaveformTap> tap_channel;
  std::optional<pipe::LaneWaveformTap> tap_restored;
  if (capture) {
    tap_channel.emplace(nl, capture_cap);
    tap_restored.emplace(nl, capture_cap);
  }

  pipe::SamplerCdrSink sink = SerDesLink::make_sink(
      config_, {rx_.decision_threshold()}, seeds, source);

  std::vector<double> tx_capture;
  pipe::Block blk;
  pipe::Block chan_blk;
  pipe::LaneBlock noisy;
  pipe::LaneBlock eq;
  pipe::LaneBlock rfi_out;
  pipe::LaneBlock restored;
  while (source.produce(blk, block) > 0) {
    const pipe::BlockView tx_view = blk.view();
    if (capture && tx_capture.size() < capture_cap) {
      const std::size_t take =
          std::min(capture_cap - tx_capture.size(), tx_view.size);
      tx_capture.insert(tx_capture.end(), tx_view.data, tx_view.data + take);
    }
    chan.process(tx_view, chan_blk);
    awgn.process(chan_blk.view(), noisy);
    pipe::LaneView v = noisy.view();
    if (capture) tap_channel->record(v);
    if (ctle) {
      ctle->process(v, eq);
      v = eq.view();
    }
    rfi.process(v, rfi_out);
    restore.process(rfi_out.view(), restored);
    const pipe::LaneView rv = restored.view();
    if (capture) tap_restored->record(rv);
    sink.consume(rv);
  }
  sink.finish();

  LinkConfig finalize_cfg = config_;
  finalize_cfg.capture_waveforms = capture;
  for (std::size_t i = 0; i < nl; ++i) {
    LinkResult& result = results[i];
    ReceiveResult rx = SerDesLink::receive(config_, sink, i);
    if (capture) {
      result.tx_out =
          analog::Waveform{source.stream_t0(), source.dt(), tx_capture};
      result.channel_out = tap_channel->take(i);
      rx.restored = tap_restored->take(i);
      // The RFI probe tap is not materialized on the lane path (nothing
      // downstream reads it); rx.rfi_out stays empty.
    }
    result.rx = std::move(rx);
    result.aligned = result.rx.aligned;
    SerDesLink::finalize_result(finalize_cfg, payload, result);
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
      // the scalar path's first-chunk observer.
      const bool first_chunk = group.drawn == 0;
      const bool capture = config_.capture_waveforms && first_chunk;
      std::vector<LinkResult> results;
      run_chunk(payload, group.lanes, capture, results);
      for (std::size_t i = 0; i < group.lanes.size(); ++i) {
        const std::size_t lane = group.lanes[i];
        LinkResult& r = results[i];
        if (first_chunk) {
          LaneOutcome& o = out[lane];
          o.cdr_decision_phase = r.rx.cdr_decision_phase;
          o.cdr_phase_updates = r.rx.cdr_phase_updates;
          o.rx_swing_pp = r.rx_swing_pp;
          o.tx_out = std::move(r.tx_out);
          o.channel_out = std::move(r.channel_out);
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
