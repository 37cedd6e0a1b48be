// Shared pieces of the benchmark's measuring program: a monotonic clock, a
// minimal JSON emitter, an in-memory span log, and the open-loop arrival
// schedule and sender used by the serving workload.
//
// The program only calls cgdnn's public API; every timing here is taken
// around such a call, from outside the library.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace e2e {

/// Nanoseconds on cgdnn's monotonic timeline (the one request deadlines
/// use), so benchmark timestamps and server deadlines are comparable.
std::uint64_t NowNs();
inline double MsBetween(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) * 1e-6;
}

/// Process peak resident set size (getrusage), in MiB.
double PeakRssMb();

/// Sleeps until `deadline_ns` on the NowNs timeline; spins the last stretch
/// so a send is not late by a scheduler quantum.
void SleepUntilNs(std::uint64_t deadline_ns);

/// Streaming JSON writer: just enough for the raw-data document.
class JsonOut {
 public:
  explicit JsonOut(std::ostream& os);
  JsonOut& BeginObject(const char* key = nullptr);
  JsonOut& EndObject();
  JsonOut& BeginArray(const char* key = nullptr);
  JsonOut& EndArray();
  JsonOut& Num(const char* key, double v);
  JsonOut& Num(double v);
  JsonOut& Str(const char* key, const std::string& v);
  JsonOut& Str(const std::string& v);
  JsonOut& Bool(const char* key, bool v);
  JsonOut& Nums(const char* key, const std::vector<double>& v);
  /// Inserts an already-serialized JSON value.
  JsonOut& Raw(const char* key, const std::string& json);

 private:
  void Sep(const char* key);
  std::ostream& os_;
  std::vector<bool> first_;
};

/// One span: a named interval with the span that encloses it and the
/// iteration or request it belongs to.
struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::int64_t id = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Spans kept in memory and written out when the run ends. Recording is
/// single-threaded: the measuring thread opens and closes spans in LIFO order,
/// and the innermost open span becomes the parent of the next one.
class SpanLog {
 public:
  std::uint32_t Intern(const std::string& name);
  std::size_t Begin(std::uint32_t name, std::int64_t id);
  void End(std::size_t index);
  /// Adds a closed span with explicit times and parent (post-hoc spans).
  std::size_t Add(std::uint32_t name, std::int32_t parent, std::int64_t id,
                  std::uint64_t start_ns, std::uint64_t end_ns);
  void Write(JsonOut& out, const char* key) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::uint32_t name, std::int64_t id)
      : log_(log), index_(log.Begin(name, id)) {}
  ~ScopedSpan() { log_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::size_t index_;
};

/// Bursty arrivals at a fixed absolute mean rate: every `period_s` opens
/// with a spike of `spike` requests all due at once, and the rest of the
/// period carries the remaining rate evenly. Each calm arrival is jittered
/// uniformly inside its own slot of 1/rate, so the seed moves arrival times
/// but never the load shape or the request count.
struct BurstShape {
  double period_s = 0.5;
  int spike = 24;
};

/// Arrival offsets (ns from the window start), sorted, for `seconds`.
std::vector<std::uint64_t> BurstyOffsetsNs(std::uint64_t seed, double mean_rps,
                                           double seconds,
                                           const BurstShape& shape);

/// Open-loop sender: request i is sent at start_ns + offsets[i] whatever
/// happened to earlier requests; no timeout, no retry. A sender that falls
/// behind (a slow submit) sends the overdue requests at once, and
/// `sent_ns[i] - due` records how late each one went out.
template <typename Submit>
void RunOpenLoop(std::uint64_t start_ns,
                 const std::vector<std::uint64_t>& offsets,
                 std::vector<std::uint64_t>* sent_ns, Submit&& submit) {
  sent_ns->assign(offsets.size(), 0);
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const std::uint64_t due = start_ns + offsets[i];
    SleepUntilNs(due);
    (*sent_ns)[i] = NowNs();
    submit(i, due);
  }
}

}  // namespace e2e
