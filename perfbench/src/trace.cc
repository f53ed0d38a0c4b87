#include "trace.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

uint32_t Tracer::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

uint32_t Tracer::Begin(std::string_view name, int64_t now_ns) {
  Span span;
  span.name = Intern(name);
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.op = op_;
  span.start_ns = now_ns >= 0 ? now_ns : NowNs();
  const uint32_t index = static_cast<uint32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  return index;
}

void Tracer::End(uint32_t index, int64_t now_ns) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("span closed out of order: " +
                           names_[spans_[index].name]);
  }
  open_.pop_back();
  spans_[index].end_ns = now_ns >= 0 ? now_ns : NowNs();
}

void Tracer::Count(std::string_view counter, double delta) {
  auto it = counters_.find(counter);
  if (it == counters_.end()) {
    counters_.emplace(std::string(counter), delta);
  } else {
    it->second += delta;
  }
}

double Tracer::Counter(std::string_view counter) const {
  auto it = counters_.find(counter);
  return it == counters_.end() ? 0.0 : it->second;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  if (!open_.empty()) throw std::logic_error("SelfSeconds with open spans");
  std::vector<int64_t> self_ns(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self_ns[i] += spans_[i].end_ns - spans_[i].start_ns;
    const uint32_t parent = spans_[i].parent;
    if (parent != kNoParent) {
      self_ns[parent] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_name[names_[spans_[i].name]] += static_cast<double>(self_ns[i]) * 1e-9;
  }
  return by_name;
}

double Tracer::TotalSeconds(std::string_view name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) return 0.0;
  int64_t total = 0;
  for (const Span& span : spans_) {
    if (span.name == it->second) total += span.end_ns - span.start_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "name\tstart_ns\tend_ns\tparent\top\n");
  for (const Span& span : spans_) {
    std::fprintf(out, "%s\t%lld\t%lld\t%lld\t%llu\n",
                 names_[span.name].c_str(),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 span.parent == kNoParent ? -1LL
                                          : static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.op));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
