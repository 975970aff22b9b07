// In-memory span recorder for the traced replay (README.md "Tracing").
//
// One track per rank plus a host track for the probes. Each track is written
// by exactly one worker (its thread, or its fiber under the DES engine), so
// recording takes no lock. Spans carry a name, start, end, parent span and
// the replay step they belong to; write_chrome() emits them as Chrome
// trace-event JSON that Perfetto opens directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perf {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  // a string literal: spans never own their name
  int64_t step = -1;      // replay step, shared by every rank's spans of it
  int32_t parent = -1;    // index of the enclosing span on the same track
  Clock::time_point start;
  Clock::time_point end;

  double seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
};

class Tracer {
 public:
  /// `tracks` rank tracks; track index `tracks` is the host track.
  explicit Tracer(size_t tracks);

  size_t host_track() const { return tracks_.size() - 1; }

  /// Opens a span on `track` nested in that track's innermost open span.
  size_t open(size_t track, const char* name, int64_t step);
  void close(size_t track, size_t index);

  const std::vector<Span>& track(size_t t) const { return tracks_.at(t).spans; }
  size_t span_count() const;

  /// Durations (seconds) of every span called `name` on rank tracks
  /// [first, last).
  std::vector<double> durations(const std::string& name, size_t first,
                                size_t last) const;

  /// Writes every span as a Chrome trace-event "X" event (one tid per
  /// track, timestamps in microseconds from the first span).
  void write_chrome(const std::string& path,
                    const std::vector<std::string>& track_names) const;

 private:
  struct Track {
    std::vector<Span> spans;
    std::vector<size_t> open;  // stack of open span indices
  };
  std::vector<Track> tracks_;
};

/// RAII span: opens on construction, closes on scope exit.
class Scoped {
 public:
  Scoped(Tracer& tracer, size_t track, const char* name, int64_t step)
      : tracer_(tracer), track_(track),
        index_(tracer.open(track, name, step)) {}
  ~Scoped() { tracer_.close(track_, index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  size_t track_;
  size_t index_;
};

/// Nearest-rank percentile of `values` (q in [0,1]); 0 for no values.
double percentile(std::vector<double> values, double q);

}  // namespace perf
