#include "trace.hpp"

#include <cstring>

#include "alloc_counter.hpp"

namespace perfbench {

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

void Tracer::enable() {
  const std::scoped_lock lock(mutex_);
  enabled_ = true;
  setAllocCounting(true);
}

void Tracer::disable() {
  const std::scoped_lock lock(mutex_);
  enabled_ = false;
  setAllocCounting(false);
}

void Tracer::reset() {
  const std::scoped_lock lock(mutex_);
  stack_.clear();
  totals_.clear();
  rootMs_.clear();
  mismatches_ = 0;
}

void Tracer::setPhase(std::string phase) {
  const std::scoped_lock lock(mutex_);
  phase_ = std::move(phase);
}

std::size_t Tracer::openSpans() const {
  const std::scoped_lock lock(mutex_);
  return stack_.size();
}

void Tracer::begin(const char* name) {
  if (!enabled_) return;
  const std::uint64_t allocs = allocCount();
  const auto now = std::chrono::steady_clock::now();
  const std::scoped_lock lock(mutex_);
  stack_.push_back(Open{name, now, allocs, 0.0});
}

void Tracer::end(const char* name) {
  if (!enabled_) return;
  const auto now = std::chrono::steady_clock::now();
  const std::uint64_t allocs = allocCount();
  const std::scoped_lock lock(mutex_);
  if (stack_.empty() || std::strcmp(stack_.back().name, name) != 0) {
    ++mismatches_;
    return;
  }
  const Open open = stack_.back();
  stack_.pop_back();
  const double ms =
      std::chrono::duration<double, std::milli>(now - open.start).count();
  Totals& t = totals_[{phase_, open.name}];
  ++t.count;
  t.inclusiveMs += ms;
  t.selfMs += ms - open.childMs;
  t.allocs += allocs - open.allocStart;
  if (stack_.empty())
    rootMs_[phase_] += ms;
  else
    stack_.back().childMs += ms;
}

double Tracer::rootMs(const std::string& phase) const {
  const std::scoped_lock lock(mutex_);
  const auto it = rootMs_.find(phase);
  return it == rootMs_.end() ? 0.0 : it->second;
}

Tracer::Totals Tracer::get(const std::string& phase,
                           const std::string& name) const {
  const std::scoped_lock lock(mutex_);
  const auto it = totals_.find({phase, name});
  return it == totals_.end() ? Totals{} : it->second;
}

}  // namespace perfbench
