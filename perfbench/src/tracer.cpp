#include "tracer.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perf {

Tracer::Tracer(size_t tracks) : tracks_(tracks + 1) {}

size_t Tracer::open(size_t track, const char* name, int64_t step) {
  Track& t = tracks_.at(track);
  Span span;
  span.name = name;
  span.step = step;
  span.parent = t.open.empty() ? -1 : static_cast<int32_t>(t.open.back());
  t.spans.push_back(span);
  t.open.push_back(t.spans.size() - 1);
  // Stamp last, so the bookkeeping above stays outside the span.
  t.spans.back().start = Clock::now();
  return t.spans.size() - 1;
}

void Tracer::close(size_t track, size_t index) {
  const Clock::time_point now = Clock::now();
  Track& t = tracks_.at(track);
  t.spans.at(index).end = now;
  if (!t.open.empty() && t.open.back() == index) t.open.pop_back();
}

size_t Tracer::span_count() const {
  size_t n = 0;
  for (const Track& t : tracks_) n += t.spans.size();
  return n;
}

std::vector<double> Tracer::durations(const std::string& name, size_t first,
                                      size_t last) const {
  std::vector<double> out;
  for (size_t t = first; t < last && t < tracks_.size(); ++t)
    for (const Span& s : tracks_[t].spans)
      if (name == s.name) out.push_back(s.seconds());
  return out;
}

void Tracer::write_chrome(const std::string& path,
                          const std::vector<std::string>& track_names) const {
  Clock::time_point origin = Clock::time_point::max();
  for (const Track& t : tracks_)
    for (const Span& s : t.spans) origin = std::min(origin, s.start);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (size_t t = 0; t < tracks_.size(); ++t) {
    sep();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << t
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << (t < track_names.size() ? track_names[t] : "track") << "\"}}";
  }
  const auto us = [&](Clock::time_point p) {
    return std::chrono::duration<double, std::micro>(p - origin).count();
  };
  out.precision(3);
  out << std::fixed;
  for (size_t t = 0; t < tracks_.size(); ++t)
    for (size_t i = 0; i < tracks_[t].spans.size(); ++i) {
      const Span& s = tracks_[t].spans[i];
      sep();
      out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << t << ",\"name\":\""
          << s.name << "\",\"ts\":" << us(s.start)
          << ",\"dur\":" << us(s.end) - us(s.start) << ",\"args\":{\"id\":"
          << i << ",\"parent\":" << s.parent << ",\"step\":" << s.step
          << "}}";
    }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      std::min(values.size() - 1,
               static_cast<size_t>(std::max(1.0, rank)) - 1);
  return values[index];
}

}  // namespace perf
