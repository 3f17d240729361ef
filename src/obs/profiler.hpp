// Host wall-time profiler for the simulation hot path. Components intern a
// scope name once (mirroring their tracer names) and wrap their handlers in an
// RAII Scope; the profiler attributes elapsed host time to the innermost
// open scope (self time) and to every enclosing scope (total time), and
// counts entries per scope — event counts per tag, for free.
//
// Disabled by default: a Scope on a disabled profiler is a single branch,
// so instrumented code stays on the sweep hot path at near-zero cost.
// Wall-clock readings are host-dependent and must stay out of the
// deterministic sweep report — callers print or export them separately,
// like SweepReport::wall_ms.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/json.hpp"

namespace rogue::obs {

class Profiler {
 public:
  struct ScopeId {
    std::uint32_t index = 0;
  };

  Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Intern a scope name; idempotent, stable across reset().
  [[nodiscard]] ScopeId intern(std::string_view name);

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Drop tallies (names survive). No scopes may be open.
  void reset();

  class Scope {
   public:
    Scope(Profiler& profiler, ScopeId id) : profiler_(profiler) {
      if (profiler.enabled_) {
        profiler.push(id);
        active_ = true;
      }
    }
    ~Scope() {
      if (active_) profiler_.pop();
    }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Profiler& profiler_;
    bool active_ = false;
  };

  struct Row {
    std::string name;
    std::uint64_t calls = 0;     ///< scope entries (event count per tag)
    std::uint64_t total_ns = 0;  ///< inclusive, outermost entries only
    std::uint64_t self_ns = 0;   ///< exclusive of child scopes
  };

  struct Report {
    std::vector<Row> rows;  ///< sorted by self_ns descending

    /// Fixed-width console table (calls, total ms, self ms, self %).
    [[nodiscard]] std::string table() const;
    /// Host-dependent — never merge this into a deterministic report.
    [[nodiscard]] util::Json to_json() const;
  };

  [[nodiscard]] Report report() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Frame {
    std::uint32_t id = 0;
    Clock::time_point start;
    std::uint64_t child_ns = 0;
  };
  struct Tally {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::uint32_t active = 0;  ///< open frames (recursion guard for total)
  };

  void push(ScopeId id);
  void pop();

  bool enabled_ = false;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<Tally> tallies_;
  std::vector<Frame> stack_;
};

}  // namespace rogue::obs
