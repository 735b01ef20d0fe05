#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/prof_stack.hpp"

namespace weakkeys::obs {

struct Profiler::Impl {
  ProfilerConfig config;

  std::mutex mu;
  std::condition_variable cv;
  bool stop_requested = false;
  bool thread_running = false;
  std::thread sampler;

  // Aggregates, guarded by mu. Keys are joined stacks ("a;b;c") and leaf
  // frame names respectively.
  std::map<std::string, std::uint64_t> stacks;
  std::map<const char*, std::uint64_t> self;
  std::uint64_t ticks = 0;
  std::uint64_t samples = 0;
};

namespace {

bool default_writer(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  out.flush();
  return out.good();
}

}  // namespace

Profiler::Profiler(ProfilerConfig config) : impl_(new Impl) {
  impl_->config = std::move(config);
  if (!impl_->config.writer) impl_->config.writer = default_writer;
}

Profiler::~Profiler() {
  stop();
  delete impl_;
}

void Profiler::start() {
  std::lock_guard lock(impl_->mu);
  if (impl_->thread_running || impl_->config.hz <= 0.0) return;
  impl_->stop_requested = false;
  prof::set_enabled(true);
  impl_->sampler = std::thread([this] { sampler_loop(); });
  impl_->thread_running = true;
}

void Profiler::stop() {
  {
    std::lock_guard lock(impl_->mu);
    if (!impl_->thread_running) return;
    impl_->stop_requested = true;
  }
  impl_->cv.notify_all();
  impl_->sampler.join();
  prof::set_enabled(false);

  std::string content;
  std::string out_path;
  {
    std::lock_guard lock(impl_->mu);
    impl_->thread_running = false;
    publish_rollups_locked();
    out_path = impl_->config.out_path;
    if (!out_path.empty()) {
      for (const auto& [stack, count] : impl_->stacks) {
        content += stack;
        content += ' ';
        content += std::to_string(count);
        content += '\n';
      }
    }
  }
  if (!out_path.empty()) impl_->config.writer(out_path, content);
}

bool Profiler::running() const {
  std::lock_guard lock(impl_->mu);
  return impl_->thread_running;
}

std::uint64_t Profiler::ticks() const {
  std::lock_guard lock(impl_->mu);
  return impl_->ticks;
}

std::uint64_t Profiler::samples() const {
  std::lock_guard lock(impl_->mu);
  return impl_->samples;
}

std::string Profiler::collapsed() const {
  std::lock_guard lock(impl_->mu);
  std::string out;
  for (const auto& [stack, count] : impl_->stacks) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>> Profiler::self_times(
    std::size_t top_n) const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  {
    std::lock_guard lock(impl_->mu);
    out.reserve(impl_->self.size());
    for (const auto& [frame, count] : impl_->self) {
      out.emplace_back(frame, count);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (out.size() > top_n) out.resize(top_n);
  return out;
}

void Profiler::publish_rollups_locked() {
  MetricsRegistry* registry = impl_->config.registry;
  if (registry == nullptr) return;
  registry->counter("profiler.ticks").set(impl_->ticks);
  registry->counter("profiler.samples").set(impl_->samples);
  for (const auto& [frame, count] : impl_->self) {
    registry->counter(std::string("profiler.self.") + frame).set(count);
  }
}

void Profiler::sampler_loop() {
  const auto period = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(1.0 / impl_->config.hz));
  std::unique_lock lock(impl_->mu);
  while (!impl_->stop_requested) {
    // Sampling under mu is fine: sample_all_stacks() takes only the
    // prof-stack registry lock, which is never held while taking mu.
    impl_->ticks++;
    for (const prof::StackSample& sample : prof::sample_all_stacks()) {
      std::string key;
      for (const char* frame : sample) {
        if (!key.empty()) key += ';';
        key += frame;
      }
      impl_->stacks[key]++;
      impl_->self[sample.back()]++;
      impl_->samples++;
    }
    publish_rollups_locked();
    impl_->cv.wait_for(lock, period, [this] { return impl_->stop_requested; });
  }
}

}  // namespace weakkeys::obs
