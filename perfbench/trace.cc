#include "trace.h"

#include <cstdio>

namespace catmark::perfbench {

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

std::int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               epoch_)
      .count();
}

int Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  spans_[index].start_ns = NowNs();  // last, so set-up work is not counted
  return index;
}

void Tracer::End(int index, double value) {
  if (index < 0) return;
  const std::int64_t now = NowNs();
  spans_[index].end_ns = now;
  spans_[index].value = value;
  // Spans close in LIFO order; tolerate a mismatch rather than corrupt the
  // stack (the parent links were fixed at Begin).
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%lld\t%lld\t%d\t%lld\t%.17g\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.op), s.value);
  }
  return std::fclose(f) == 0;
}

}  // namespace catmark::perfbench
