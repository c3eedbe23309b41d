#include "trace.hpp"

#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {
namespace {

/// Spans kept per run; beyond this they are counted as dropped so a long
/// serve run cannot grow memory without bound.
constexpr std::uint64_t kSpanBudget = 1u << 20;

struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::uint64_t request = 0;
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  ///< stack of open span indices
};

std::mutex g_buffers_mutex;
/// Owned here so buffers outlive the threads that filled them.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& local_buffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    buffer->tid = static_cast<std::uint32_t>(g_buffers.size() + 1);
    t_buffer = buffer.get();
    g_buffers.push_back(std::move(buffer));
  }
  return *t_buffer;
}

std::string layer_of(const char* name) {
  const std::string s(name);
  const std::size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::open(const char* name) {
  if (budget_used_.fetch_add(1, std::memory_order_relaxed) >= kSpanBudget) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  ThreadBuffer& b = local_buffer();
  Span s;
  s.name = name;
  s.parent = b.open.empty() ? -1 : b.open.back();
  s.request = b.request;
  s.start_ns = now_ns();
  b.spans.push_back(s);
  const auto handle = static_cast<std::int32_t>(b.spans.size() - 1);
  b.open.push_back(handle);
  return handle;
}

void Tracer::close(int handle) {
  ThreadBuffer& b = local_buffer();
  b.spans[static_cast<std::size_t>(handle)].end_ns = now_ns();
  if (!b.open.empty() && b.open.back() == handle) b.open.pop_back();
}

void Tracer::set_request(std::uint64_t id) {
  if (enabled()) local_buffer().request = id;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::map<std::string, double> out;
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& b : g_buffers) {
    std::vector<std::int64_t> child_ns(b->spans.size(), 0);
    for (const Span& s : b->spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      out[layer_of(s.name)] +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-6;
    }
  }
  return out;
}

std::uint64_t Tracer::recorded() const {
  std::uint64_t n = 0;
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& b : g_buffers) n += b->spans.size();
  return n;
}

bool Tracer::write_chrome(const std::string& path,
                          std::uint64_t max_events) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::int64_t origin = 0;
  bool have_origin = false;
  for (const auto& b : g_buffers) {
    for (const Span& s : b->spans) {
      if (!have_origin || s.start_ns < origin) origin = s.start_ns;
      have_origin = true;
    }
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  std::uint64_t written = 0;
  for (const auto& b : g_buffers) {
    for (std::size_t i = 0; i < b->spans.size() && written < max_events;
         ++i) {
      const Span& s = b->spans[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%llu}}",
                   written == 0 ? "" : ",", s.name, layer_of(s.name).c_str(),
                   b->tid, static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   s.parent, static_cast<unsigned long long>(s.request));
      ++written;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
