// Sample blocks flowing through the streaming link pipeline.
//
// The streaming datapath never materializes a full-payload waveform: the
// TX source emits fixed-size blocks of samples, every stage transforms one
// block at a time (carrying its filter/NCO state across blocks), and the
// receiver sink consumes them incrementally.  A `BlockView` is a non-owning
// window onto the logical sample stream — it knows its absolute position
// (`start_index`) and the stream-level time base, so stages and sinks can
// reproduce the exact arithmetic of the whole-waveform models.
#pragma once

#include <cstdint>
#include <vector>

#include "util/units.h"

namespace serdes::pipe {

/// Non-owning view of one contiguous run of stream samples.
struct BlockView {
  const double* data = nullptr;
  std::size_t size = 0;
  /// Absolute index of data[0] within the logical stream.
  std::uint64_t start_index = 0;
  /// Time of stream sample 0 (not of this block) — the batch waveform's t0.
  util::Second stream_t0{0.0};
  util::Second dt{1e-12};
  /// True for the final block of the stream.
  bool last = false;

  [[nodiscard]] bool empty() const { return size == 0; }
  [[nodiscard]] double operator[](std::size_t i) const { return data[i]; }
};

/// Owning sample buffer a stage writes its output into.  Stages call
/// `match(in)` to copy the stream metadata and size from their input view,
/// then fill `samples()`.
class Block {
 public:
  /// Adopts `in`'s metadata and resizes the buffer to `in.size`.
  void match(const BlockView& in) {
    samples_.resize(in.size);
    start_index_ = in.start_index;
    stream_t0_ = in.stream_t0;
    dt_ = in.dt;
    last_ = in.last;
  }

  [[nodiscard]] std::vector<double>& samples() { return samples_; }
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }
  [[nodiscard]] double* data() { return samples_.data(); }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }

  void set_start_index(std::uint64_t i) { start_index_ = i; }
  void set_stream_t0(util::Second t0) { stream_t0_ = t0; }
  void set_dt(util::Second dt) { dt_ = dt; }
  void set_last(bool last) { last_ = last; }

  [[nodiscard]] BlockView view() const {
    return BlockView{samples_.data(), samples_.size(), start_index_,
                     stream_t0_, dt_, last_};
  }

 private:
  std::vector<double> samples_;
  std::uint64_t start_index_ = 0;
  util::Second stream_t0_{0.0};
  util::Second dt_{1e-12};
  bool last_ = false;
};

}  // namespace serdes::pipe
