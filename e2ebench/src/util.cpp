#include "util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <random>
#include <thread>

#include "cgdnn/core/common.hpp"

namespace e2e {

std::uint64_t NowNs() { return cgdnn::MonotonicNowNs(); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void SleepUntilNs(std::uint64_t deadline_ns) {
  constexpr std::uint64_t kSpinNs = 200'000;
  std::uint64_t now = NowNs();
  if (deadline_ns > now + kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - now - kSpinNs));
  }
  while (NowNs() < deadline_ns) {
  }
}

// ---------------------------------------------------------------- JsonOut

JsonOut::JsonOut(std::ostream& os) : os_(os) {
  os_ << std::setprecision(10);
}

void JsonOut::Sep(const char* key) {
  if (!first_.empty()) {
    if (!first_.back()) os_ << ',';
    first_.back() = false;
  }
  if (key != nullptr) os_ << '"' << key << "\":";
}

JsonOut& JsonOut::BeginObject(const char* key) {
  Sep(key);
  os_ << '{';
  first_.push_back(true);
  return *this;
}

JsonOut& JsonOut::EndObject() {
  first_.pop_back();
  os_ << '}';
  return *this;
}

JsonOut& JsonOut::BeginArray(const char* key) {
  Sep(key);
  os_ << '[';
  first_.push_back(true);
  return *this;
}

JsonOut& JsonOut::EndArray() {
  first_.pop_back();
  os_ << ']';
  return *this;
}

JsonOut& JsonOut::Num(const char* key, double v) {
  Sep(key);
  if (std::isfinite(v)) {
    os_ << v;
  } else {
    os_ << "null";
  }
  return *this;
}

JsonOut& JsonOut::Num(double v) { return Num(nullptr, v); }

JsonOut& JsonOut::Str(const char* key, const std::string& v) {
  Sep(key);
  os_ << '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      os_ << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os_ << ' ';
    } else {
      os_ << c;
    }
  }
  os_ << '"';
  return *this;
}

JsonOut& JsonOut::Str(const std::string& v) { return Str(nullptr, v); }

JsonOut& JsonOut::Bool(const char* key, bool v) {
  Sep(key);
  os_ << (v ? "true" : "false");
  return *this;
}

JsonOut& JsonOut::Nums(const char* key, const std::vector<double>& v) {
  BeginArray(key);
  for (const double x : v) Num(x);
  return EndArray();
}

JsonOut& JsonOut::Raw(const char* key, const std::string& json) {
  Sep(key);
  os_ << json;
  return *this;
}

// ---------------------------------------------------------------- SpanLog

std::uint32_t SpanLog::Intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::size_t SpanLog::Begin(std::uint32_t name, std::int64_t id) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.id = id;
  spans_.push_back(s);
  open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  spans_.back().start_ns = NowNs();
  return spans_.size() - 1;
}

void SpanLog::End(std::size_t index) {
  spans_[index].end_ns = NowNs();
  open_.pop_back();
}

std::size_t SpanLog::Add(std::uint32_t name, std::int32_t parent,
                         std::int64_t id, std::uint64_t start_ns,
                         std::uint64_t end_ns) {
  spans_.push_back({name, parent, id, start_ns, end_ns});
  return spans_.size() - 1;
}

void SpanLog::Write(JsonOut& out, const char* key) const {
  out.BeginObject(key);
  out.BeginArray("names");
  for (const auto& n : names_) out.Str(n);
  out.EndArray();
  // Rows: [name, parent, id, start_us, end_us], times from the earliest span.
  std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  out.BeginArray("rows");
  for (const Span& s : spans_) {
    out.BeginArray();
    out.Num(s.name).Num(s.parent).Num(static_cast<double>(s.id));
    out.Num(static_cast<double>(s.start_ns - origin) * 1e-3);
    out.Num(static_cast<double>(s.end_ns - origin) * 1e-3);
    out.EndArray();
  }
  out.EndArray();
  out.EndObject();
}

// ------------------------------------------------------------ load shape

std::vector<std::uint64_t> BurstyOffsetsNs(std::uint64_t seed, double mean_rps,
                                           double seconds,
                                           const BurstShape& shape) {
  const double calm_rps = mean_rps - shape.spike / shape.period_s;
  const double slot = 1.0 / calm_rps;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> jitter(0.0, 1.0);
  std::vector<std::uint64_t> out;
  const auto periods = static_cast<long>(seconds / shape.period_s);
  for (long p = 0; p < periods; ++p) {
    const double begin = static_cast<double>(p) * shape.period_s;
    out.insert(out.end(), static_cast<std::size_t>(shape.spike),
               static_cast<std::uint64_t>(begin * 1e9));
    for (double t = begin; t + slot <= begin + shape.period_s + 1e-12;
         t += slot) {
      out.push_back(static_cast<std::uint64_t>((t + jitter(rng) * slot) * 1e9));
    }
  }
  return out;
}

}  // namespace e2e
