// End-to-end sweep benchmark: times what a user of the sweep runner waits
// for on the four stock workloads, checks every replica's outcome, and —
// in a separate traced run — splits the time across layers from outside
// the program (its profiler, counters and tracer, read through the public
// World API, plus direct timing of the modp1024 Diffie-Hellman kernel).
//
//   sweep_bench --workload paper-corp --seed 1 --seconds 10 --trace 0
//
// Everything runs in one process on one thread (jobs = 1), closed loop:
// one replica after another. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; human-readable notes go
// to stderr. run.py builds this binary and is the normal entry point.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crypto/dh.hpp"
#include "runner/metrics.hpp"
#include "runner/scenarios.hpp"
#include "runner/sweep.hpp"
#include "runner/tournament.hpp"
#include "scenario/corp_world.hpp"
#include "util/json.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"

using namespace rogue;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  util::Summary s;
  for (const double x : v) s.add(x);
  return s.median();
}

constexpr std::uint64_t kDefaultSeed = 1;  // the seed the pinned digests use
// Set-up batches run before every sweep and after the last one, so that
// they span the run: on a shared host, set-up passes run in fast and slow
// spells (about 1.6x apart) that each last a second or so. A batch is at
// least kSetupBatchPasses passes, and on until kSetupBatchSeconds.
constexpr int kSetupBatchPasses = 3;
constexpr int kMaxSetupPasses = 1000;
constexpr double kSetupBatchSeconds = 0.1;

struct Workload {
  std::string_view name;
  std::string_view scenario;  ///< stock ladder, or the tournament's world
  bool tournament;
  std::size_t runs;       ///< replicas per variant (per pair)
  std::size_t tiny_runs;  ///< the same in --tiny mode
};

constexpr Workload kWorkloads[] = {
    {"paper-corp", "corp", false, 1, 1},
    {"vpn-transport", "corp-transport", false, 2, 1},
    {"metro", "metro", false, 3, 1},
    {"wids-tournament", "corp", true, 40, 2},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

/// Metric names allow letters, digits, '_', '.', '-' only.
std::string metric_token(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) c = '-';
  }
  return out;
}

// ---- The workloads' replicas, driven through the public World API ----------

struct Replica {
  std::string variant;  ///< as the sweep report names it
  std::uint64_t seed = 0;
  runner::WorldFactory make;
};

/// The tournament's per-pair world, built the way runner::run_tournament
/// builds it for the corp scenario. The traced pass checks every replica
/// against the tournament's own outcome, so a drift here shows as failed.
runner::WorldFactory tournament_pair(std::string attacker, std::string detector) {
  const runner::TournamentConfig defaults;
  return [attacker = std::move(attacker), detector = std::move(detector),
          baseline = defaults.baseline_window,
          attack = defaults.attack_window](std::uint64_t) {
    scenario::CorpConfig c;
    c.victim_to_legit_m = 20.0;
    c.victim_to_rogue_m = 4.0;
    c.do_download = false;
    c.wids_detectors = {detector};
    c.wids_attacker = attacker;
    c.wids_baseline_window = baseline;
    c.wids_attack_window = attack;
    return std::unique_ptr<scenario::World>(
        std::make_unique<scenario::CorpWorld>(c));
  };
}

std::vector<runner::Variant> workload_variants(const Workload& w) {
  if (!w.tournament) return runner::stock_variants(w.scenario);
  std::vector<runner::Variant> out;
  for (const std::string& a : runner::stock_tournament_attackers(w.scenario)) {
    for (const std::string& d : runner::stock_tournament_detectors()) {
      out.push_back(runner::Variant{a + "|" + d, tournament_pair(a, d)});
    }
  }
  return out;
}

/// Variant-major, seed-minor: the order the sweep runner reports them in.
std::vector<Replica> workload_replicas(const Workload& w, std::uint64_t seed_base,
                                       std::size_t runs) {
  std::vector<Replica> out;
  for (const runner::Variant& v : workload_variants(w)) {
    for (std::size_t i = 0; i < runs; ++i) {
      out.push_back(Replica{v.name, seed_base + i, v.make});
    }
  }
  return out;
}

// ---- Outcome check ----------------------------------------------------------

/// FNV-1a over the replica's serialized scenario::Metrics, minus the
/// fields that count instrumentation or kernel events rather than
/// outcomes (the layer-counter snapshot is never serialized per replica).
std::uint64_t outcome_digest(const runner::RunMetrics& run) {
  static constexpr std::string_view kExcluded[] = {
      "trace_records", "trace_warnings", "events_fired", "stats"};
  const util::Json full = runner::to_json(run, /*include_wall=*/false);
  util::Json kept = util::Json::object();
  if (const util::Json* m = full.find("metrics")) {
    for (const auto& [key, value] : m->members()) {
      if (std::find(std::begin(kExcluded), std::end(kExcluded), key) ==
          std::end(kExcluded)) {
        kept.set(key, value);
      }
    }
  }
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : kept.dump()) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Identifies a replica across sweeps, traced passes and the pin file.
std::string replica_key(std::string_view variant, std::uint64_t seed) {
  return std::string(variant) + " " + std::to_string(seed);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Pinned per-replica digests, keyed "<variant> <seed>", from the lines
/// "<workload> <variant> <seed> <digest>" of the digests file.
class Pins {
 public:
  bool load(const std::string& path, std::string_view workload) {
    std::ifstream in(path);
    if (!in) return false;
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string wl, variant, digest;
      std::uint64_t seed = 0;
      if (!(fields >> wl >> variant >> seed >> digest)) continue;
      if (wl == workload) pins_[replica_key(variant, seed)] = digest;
    }
    return true;
  }
  [[nodiscard]] const std::string* find(const runner::RunMetrics& run) const {
    const auto it = pins_.find(replica_key(run.variant, run.seed));
    return it == pins_.end() ? nullptr : &it->second;
  }
  /// Flip one pinned digest: the self-test proves a wrong outcome is
  /// counted as a failed replica.
  void corrupt(const runner::RunMetrics& run) {
    std::string& d = pins_[replica_key(run.variant, run.seed)];
    d = d == "0000000000000000" ? "ffffffffffffffff" : "0000000000000000";
  }

 private:
  std::map<std::string, std::string> pins_;
};

/// Empty when the replica's outcome is right; otherwise why not.
std::string outcome_problem(const Workload& w, const runner::RunMetrics& run,
                            const Pins& pins, bool require_pin) {
  if (run.failed) return "threw: " + run.error;
  const scenario::Metrics& m = run.metrics;
  if (w.name == "paper-corp") {
    if (run.variant == "baseline" && m.victim_captured) {
      return "baseline victim captured";
    }
    if (run.variant == "rogue+deauth" && !m.victim_deceived) {
      return "rogue+deauth victim not deceived";
    }
    if (run.variant == "vpn" && m.victim_deceived) return "vpn victim deceived";
  }
  if (w.name == "vpn-transport") {
    if (m.stats.value("vpn.client.sessions_established") == 0) {
      return "tunnel never came up";
    }
    if (m.vpn_auth_fail_drops != 0 ||
        m.stats.value("vpn.endpoint.auth_failures") != 0) {
      return "tunnel auth failures";
    }
  }
  const std::string* pin = pins.find(run);
  if (pin == nullptr) return require_pin ? "no pinned digest" : "";
  if (*pin != hex64(outcome_digest(run))) return "digest mismatch";
  return "";
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

void check_outcomes(const Workload& w, const std::vector<runner::RunMetrics>& runs,
                    const Pins& pins, bool require_pin, Tally& tally) {
  for (const runner::RunMetrics& run : runs) {
    ++tally.attempted;
    const std::string problem = outcome_problem(w, run, pins, require_pin);
    if (problem.empty()) continue;
    ++tally.failed;
    std::fprintf(stderr, "FAILED %s seed=%llu: %s\n", run.variant.c_str(),
                 static_cast<unsigned long long>(run.seed), problem.c_str());
  }
}

// ---- The measured sweep -----------------------------------------------------

struct SweepResult {
  double call_s = 0.0;    ///< the sweep call alone
  double report_s = 0.0;  ///< serialising and writing the JSON report
  std::size_t report_bytes = 0;
  std::vector<runner::RunMetrics> runs;
};

/// The sweep runner over the workload's variants, tracer on or off, as
/// the sweep CLI runs it with --jobs 1 (and --trace-out when traced).
runner::SweepReport runner_sweep(const Workload& w, std::uint64_t seed_base,
                                 std::size_t runs, bool trace) {
  runner::SweepConfig cfg;
  cfg.scenario = std::string(w.scenario);
  cfg.seed_base = seed_base;
  cfg.runs = runs;
  cfg.jobs = 1;
  cfg.trace = trace;
  runner::ExperimentRunner exp(cfg);
  for (runner::Variant& v : workload_variants(w)) {
    exp.add_variant(std::move(v.name), std::move(v.make));
  }
  return exp.run();
}

/// One sweep call exactly as the sweep CLI makes it with --jobs 1 --out,
/// minus the console table.
SweepResult run_sweep(const Workload& w, std::uint64_t seed_base,
                      std::size_t runs, const std::string& report_path) {
  SweepResult out;
  const auto t0 = Clock::now();
  std::string text;
  if (w.tournament) {
    runner::TournamentConfig tc;
    tc.scenario = std::string(w.scenario);
    tc.seed_base = seed_base;
    tc.runs = runs;
    tc.jobs = 1;
    runner::TournamentReport report = runner::run_tournament(tc);
    out.call_s = seconds_since(t0);
    text = report.to_json().dump(2);
    out.runs = std::move(report.runs);
  } else {
    runner::SweepReport report = runner_sweep(w, seed_base, runs, false);
    out.call_s = seconds_since(t0);
    text = report.to_json().dump(2);
    out.runs = std::move(report.runs);
  }
  std::FILE* f = std::fopen(report_path.c_str(), "w");
  const bool written = f != nullptr &&
                       std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                       std::fputc('\n', f) != EOF;
  if (f == nullptr || std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s\n", report_path.c_str());
    std::exit(1);
  }
  out.report_bytes = text.size() + 1;
  out.report_s = seconds_since(t0) - out.call_s;
  return out;
}

/// What the end-to-end and runner metrics need from the measured sweeps.
struct SweepLedger {
  std::vector<double> sweep_s, call_s, report_s, overhead_s;
  std::size_t report_bytes = 0;
  std::size_t replicas_timed = 0;
  /// Host ms of every timed replica, by variant, then seed.
  std::map<std::string, std::map<std::uint64_t, std::vector<double>>> wall_ms;
  double replica_s_total = 0.0;
  double sim_s_total = 0.0;
  double events_total = 0.0;

  void add(const SweepResult& r) {
    sweep_s.push_back(r.call_s + r.report_s);
    call_s.push_back(r.call_s);
    report_s.push_back(r.report_s);
    report_bytes = r.report_bytes;
    double replica_s = 0.0;
    for (const runner::RunMetrics& run : r.runs) {
      wall_ms[run.variant][run.seed].push_back(run.wall_ms);
      ++replicas_timed;
      replica_s += run.wall_ms / 1e3;
      sim_s_total += run.metrics.sim_time_s;
      events_total += static_cast<double>(run.metrics.events_fired);
    }
    replica_s_total += replica_s;
    overhead_s.push_back(r.call_s - replica_s);
  }

  /// One sample per replica (variant, seed) whose variant passes `keep`:
  /// the mean of its host times over the repeated sweeps. On a shared
  /// host whole sweeps run in fast or slow spells (small replicas up to
  /// 1.8x apart); a median over the two or three sweeps of a run picks
  /// one spell, where a mean weighs them.
  template <typename Keep>
  [[nodiscard]] util::Summary replica_ms(Keep keep) const {
    util::Summary s;
    for (const auto& [variant, by_seed] : wall_ms) {
      if (!keep(variant)) continue;
      for (const auto& [seed, times] : by_seed) {
        util::Summary t;
        for (const double x : times) t.add(x);
        s.add(t.mean());
      }
    }
    return s;
  }
  [[nodiscard]] util::Summary replica_ms() const {
    return replica_ms([](const std::string&) { return true; });
  }
  template <typename Keep>
  [[nodiscard]] double replica_ms_p50(Keep keep) const {
    const util::Summary s = replica_ms(keep);
    return s.count() > 0 ? s.median() : 0.0;
  }
  /// Median over variants of each variant's replica median. The median
  /// of all replica samples would sit at the edge between two variants'
  /// clusters (the slowest replica of one, the fastest of the next),
  /// the least steady order statistics there are.
  [[nodiscard]] double variant_median_ms() const {
    util::Summary s;
    for (const auto& [variant, by_seed] : wall_ms) {
      s.add(replica_ms_p50([&](const std::string& n) { return n == variant; }));
    }
    return s.count() > 0 ? s.median() : 0.0;
  }
};

// ---- Set-up pass ------------------------------------------------------------

/// Host time of Variant::make + World::configure for every replica. The
/// pass repeats at least `min_passes` times and until `min_seconds` are
/// spent (capped at kMaxSetupPasses); returns each pass's total.
std::vector<double> setup_passes(const std::vector<Replica>& replicas,
                                 int min_passes, double min_seconds,
                                 util::Summary& per_replica_ms) {
  std::vector<double> totals;
  const auto start = Clock::now();
  for (int p = 0; p < kMaxSetupPasses &&
                  (p < min_passes || seconds_since(start) < min_seconds);
       ++p) {
    double total = 0.0;
    for (const Replica& r : replicas) {
      const auto t0 = Clock::now();
      std::unique_ptr<scenario::World> world = r.make(r.seed);
      world->configure(r.seed);
      const double s = seconds_since(t0);
      total += s;
      per_replica_ms.add(s * 1e3);
    }
    totals.push_back(total);
  }
  return totals;
}

// ---- Traced pass ------------------------------------------------------------

/// Per-layer observations from one pass over the workload's replicas with
/// the program's host profiler and causal tracer switched on.
struct TracedPass {
  double episode_s = 0.0;  ///< run_episode() alone, all replicas
  double scoped_ms = 0.0;  ///< self time inside any profiler scope
  std::map<std::string, obs::Profiler::Row> scopes;  ///< summed over replicas
  std::map<std::string, double> counters;  ///< summed stats counters
  double heap_peak = 0.0;                  ///< max over replicas
  double metro_associations = 0.0;
  double alerts = 0.0;
  double false_alerts = 0.0;
  double faults = 0.0;
  double trace_records = 0.0;
};

/// Tracing and profiling must not change an outcome, and a replica built
/// here must match the sweep runner's replica of the same seed. Returns
/// whether the replica passed.
bool check_traced(const runner::RunMetrics& run,
                  const std::map<std::string, std::uint64_t>& untraced,
                  Tally& tally) {
  ++tally.attempted;
  const auto it = untraced.find(replica_key(run.variant, run.seed));
  if (!run.failed && it != untraced.end() && it->second == outcome_digest(run)) {
    return true;
  }
  ++tally.failed;
  std::fprintf(stderr, "FAILED traced %s seed=%llu: %s\n", run.variant.c_str(),
               static_cast<unsigned long long>(run.seed),
               run.failed ? run.error.c_str() : "outcome differs from sweep");
  return false;
}

/// Host seconds of one traced sweep call (profiler off), its replicas
/// checked against the untraced sweep's.
double traced_sweep_s(const Workload& w, std::uint64_t seed_base, std::size_t runs,
                      const std::map<std::string, std::uint64_t>& untraced,
                      Tally& tally) {
  const auto t0 = Clock::now();
  const runner::SweepReport report = runner_sweep(w, seed_base, runs, true);
  const double s = seconds_since(t0);
  for (const runner::RunMetrics& run : report.runs) check_traced(run, untraced, tally);
  return s;
}

TracedPass traced_pass(const std::vector<Replica>& replicas,
                       const std::map<std::string, std::uint64_t>& untraced,
                       Tally& tally) {
  TracedPass out;
  for (const Replica& r : replicas) {
    runner::RunMetrics run;
    run.variant = r.variant;
    run.seed = r.seed;
    std::unique_ptr<scenario::World> world;
    try {
      world = r.make(r.seed);
      world->simulator().tracer().enable(runner::SweepConfig{}.trace_ring_events);
      world->configure(r.seed);
      world->simulator().profiler().set_enabled(true);
      const auto t0 = Clock::now();
      world->run_episode();
      out.episode_s += seconds_since(t0);
      run.metrics = world->collect_metrics();
    } catch (const std::exception& e) {
      run.failed = true;
      run.error = e.what();
    }
    if (!check_traced(run, untraced, tally)) continue;
    for (const obs::Profiler::Row& row :
         world->simulator().profiler().report().rows) {
      obs::Profiler::Row& acc = out.scopes[row.name];
      acc.calls += row.calls;
      acc.self_ns += row.self_ns;
      out.scoped_ms += static_cast<double>(row.self_ns) / 1e6;
    }
    const scenario::Metrics& m = run.metrics;
    for (const obs::StatsSnapshot::Entry& e : m.stats.entries) {
      out.counters[e.name] += static_cast<double>(e.value);
    }
    out.heap_peak = std::max(out.heap_peak,
                             static_cast<double>(m.stats.value("sim.heap_peak")));
    out.metro_associations += static_cast<double>(m.metro_associations);
    out.alerts += static_cast<double>(m.wids_alerts + m.seq_anomalies);
    out.false_alerts += static_cast<double>(m.wids_false_alerts);
    out.faults += static_cast<double>(m.faults_injected);
    out.trace_records +=
        static_cast<double>(world->simulator().tracer().recorded());
  }
  return out;
}

/// Host times of modp1024 modular exponentiations, timed on the crypto
/// layer's public DH calls: one key-pair exchange gives two samples (a
/// key generation and a shared secret), appended to `ms`.
void time_dh_ops(std::vector<double>& ms) {
  const crypto::DhGroup& group = crypto::DhGroup::modp1024();
  util::Prng rng(0x5eed);
  auto t0 = Clock::now();
  const crypto::DhKeyPair a = crypto::DhKeyPair::generate(group, rng);
  ms.push_back(seconds_since(t0) * 1e3);
  const crypto::DhKeyPair b = crypto::DhKeyPair::generate(group, rng);
  t0 = Clock::now();
  const util::Bytes secret = a.shared_secret(b.public_value());
  ms.push_back(seconds_since(t0) * 1e3);
  if (secret.empty() || secret != b.shared_secret(a.public_value())) {
    std::fprintf(stderr, "modp1024 shared secrets disagree\n");
    std::exit(1);
  }
}

// ---- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void emit(const Tally& tally, const std::vector<Metric>& metrics) {
  util::Json m = util::Json::object();
  for (const Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", metric.name.c_str());
      std::exit(1);
    }
    util::Json entry = util::Json::object();
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    m.set(metric.name, std::move(entry));
  }
  util::Json out = util::Json::object();
  out.set("correct", tally.failed == 0);
  out.set("attempted", static_cast<std::uint64_t>(tally.attempted));
  out.set("failed", static_cast<std::uint64_t>(tally.failed));
  out.set("metrics", std::move(m));
  std::printf("%s\n", out.dump().c_str());
}

/// The process image's own RSS high-water mark. getrusage's ru_maxrss
/// is not used: on Linux it carries over the launching process's peak
/// through exec, so a Python launcher's RSS would hide a small harness's.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  std::fprintf(stderr, "no VmHWM in /proc/self/status\n");
  std::exit(1);
}

/// Per-variant timing metrics exist for every workload's variants; a run
/// of another workload reports them as 0 (no such variant ran).
void per_variant_metrics(const Workload& current, const SweepLedger& ledger,
                         std::vector<Metric>& out) {
  auto p50 = [&](const Workload& w, auto keep) {
    return &w == &current ? ledger.replica_ms_p50(keep) : 0.0;
  };
  for (const Workload& w : kWorkloads) {
    if (!w.tournament) {
      for (const runner::Variant& v : runner::stock_variants(w.scenario)) {
        out.push_back({"variant." + std::string(w.name) + "." +
                           metric_token(v.name) + ".replica_ms_p50",
                       p50(w, [&](const std::string& n) { return n == v.name; }),
                       "ms"});
      }
      continue;
    }
    // Tournament variants are "<attacker>|<detector>" pairs.
    for (const std::string& d : runner::stock_tournament_detectors()) {
      out.push_back({"detect." + metric_token(d) + ".replica_ms_p50",
                     p50(w, [&](const std::string& n) {
                       return n.substr(n.find('|') + 1) == d;
                     }),
                     "ms"});
    }
    for (const std::string& a : runner::stock_tournament_attackers(w.scenario)) {
      out.push_back({"attack." + metric_token(a) + ".replica_ms_p50",
                     p50(w, [&](const std::string& n) {
                       return n.substr(0, n.find('|')) == a;
                     }),
                     "ms"});
    }
  }
}

std::vector<Metric> layer_metrics(const Workload& w, const SweepLedger& ledger,
                                  const util::Summary& setup_ms,
                                  const std::vector<TracedPass>& passes,
                                  double trace_overhead_pct, double dh_ms,
                                  const Tally& tally) {
  // Counts repeat exactly across passes; times are averaged over them.
  const TracedPass& p = passes.front();
  const double n_passes = static_cast<double>(passes.size());
  auto self_ms = [&](std::string_view scope) {
    double ns = 0.0;
    for (const TracedPass& pass : passes) {
      const auto it = pass.scopes.find(std::string(scope));
      if (it != pass.scopes.end()) ns += static_cast<double>(it->second.self_ns);
    }
    return ns / 1e6 / n_passes;
  };
  auto calls = [&](std::string_view scope) {
    const auto it = p.scopes.find(std::string(scope));
    return it == p.scopes.end() ? 0.0 : static_cast<double>(it->second.calls);
  };
  auto counter = [&](std::string_view name) {
    const auto it = p.counters.find(std::string(name));
    return it == p.counters.end() ? 0.0 : it->second;
  };
  double episode_ms = 0.0;
  double scoped_ms = 0.0;
  for (const TracedPass& pass : passes) {
    episode_ms += pass.episode_s * 1e3;
    scoped_ms += pass.scoped_ms;
  }
  episode_ms /= n_passes;
  // Episode host time outside every profiler scope (e.g. work the episode
  // script does between simulator runs).
  const double unscoped_ms = std::max(0.0, episode_ms - scoped_ms / n_passes);

  // Every established session costs four modexps (a key pair and a shared
  // secret on each side); an attempt that never established cost at least
  // the client's key pair.
  const double sessions = counter("vpn.endpoint.sessions_established");
  const double attempts = counter("vpn.client.connect_attempts");
  const double dh_ops =
      4.0 * sessions +
      std::max(0.0, attempts - counter("vpn.client.sessions_established"));
  const double dh_ms_total = dh_ops * dh_ms;
  const double sweeps = static_cast<double>(ledger.sweep_s.size());

  std::vector<Metric> out = {
      {"runner.report_ms", median(ledger.report_s) * 1e3, "ms"},
      {"runner.overhead_ms", median(ledger.overhead_s) * 1e3, "ms"},
      {"runner.replicas", static_cast<double>(ledger.replicas_timed), "count"},
      {"runner.failed_frac",
       ratio(static_cast<double>(tally.failed), static_cast<double>(tally.attempted)),
       "ratio"},
      {"scenario.setup_ms_p50", setup_ms.median(), "ms"},
      {"sim.events", ledger.events_total / sweeps, "count"},
      {"sim.events_per_s", ratio(ledger.events_total, ledger.replica_s_total), "1/s"},
      {"sim.cancels", counter("sim.cancels"), "count"},
      {"sim.heap_peak", p.heap_peak, "count"},
      {"sim.pool.reuse_ratio",
       ratio(counter("sim.pool.reuses"), counter("sim.pool.acquires")), "ratio"},
      {"sim.dispatch_self_share", ratio(self_ms("sim.dispatch"), episode_ms), "ratio"},
      {"phy.deliver_self_ms", self_ms("phy.deliver"), "ms"},
      {"phy.plan_rebuild_self_ms", self_ms("phy.plan_rebuild"), "ms"},
      {"phy.plan_rebuilds", calls("phy.plan_rebuild"), "count"},
      {"phy.tx_frames", counter("phy.tx_frames"), "count"},
      {"phy.collisions", counter("phy.collisions"), "count"},
      {"phy.rssi_cache_hit_ratio",
       ratio(counter("phy.rssi_cache_hits"),
             counter("phy.rssi_cache_hits") + counter("phy.rssi_cache_misses")),
       "ratio"},
      {"dot11.sta.rx_self_ms", self_ms("dot11.sta.rx"), "ms"},
      {"dot11.ap.rx_self_ms", self_ms("dot11.ap.rx"), "ms"},
      // Metro's roaming stations are that world's station layer.
      {"dot11.sta.associations",
       counter("dot11.sta.associations") + p.metro_associations, "count"},
      {"dot11.ap.beacons_tx", counter("dot11.ap.beacons_tx"), "count"},
      {"net.tcp.segments_sent", counter("net.tcp.segments_sent"), "count"},
      {"net.tcp.retransmit_ratio",
       ratio(counter("net.tcp.retransmits"), counter("net.tcp.segments_sent")),
       "ratio"},
      {"net.ip.forwarded", counter("net.ip.forwarded"), "count"},
      {"vpn.records",
       counter("vpn.client.records_out") + counter("vpn.endpoint.records_out"),
       "count"},
      {"vpn.session_ratio",
       ratio(counter("vpn.client.sessions_established"), attempts), "ratio"},
      {"vpn.reconnects", counter("vpn.client.reconnects"), "count"},
      {"vpn.data_self_ms", self_ms("vpn.client.data") + self_ms("vpn.endpoint.data"),
       "ms"},
      {"crypto.dh_ops", dh_ops, "count"},
      {"crypto.dh_op_ms", dh_ms, "ms"},
      {"crypto.dh_share",
       ratio(dh_ms_total, ledger.replica_s_total * 1e3 / sweeps), "ratio"},
      // The profiler leaves DH inside its callers: the sim.dispatch and
      // dot11.sta.rx self time, or no scope at all.
      {"crypto.dh_explained_share",
       ratio(dh_ms_total,
             self_ms("sim.dispatch") + self_ms("dot11.sta.rx") + unscoped_ms),
       "ratio"},
      {"detect.alerts", p.alerts, "count"},
      {"detect.false_alerts", p.false_alerts, "count"},
      {"faults.injected", p.faults, "count"},
      {"obs.trace_overhead_pct", trace_overhead_pct, "%"},
      {"obs.trace_records", p.trace_records, "count"},
      {"obs.unscoped_share", ratio(unscoped_ms, episode_ms), "ratio"},
  };
  per_variant_metrics(w, ledger, out);
  return out;
}

// ---- Main -------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt_digest = false;
  bool print_digests = false;
  std::string digests;
  std::string out_dir = ".";
};

[[noreturn]] void usage_error(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: sweep_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --digests FILE [--out-dir DIR] [--tiny] "
               "[--corrupt-digest] [--print-digests]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()), w.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error("missing option value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value(), nullptr);
    } else if (arg == "--trace") {
      o.trace = std::string_view(value()) == "1";
    } else if (arg == "--digests") {
      o.digests = value();
    } else if (arg == "--out-dir") {
      o.out_dir = value();
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--corrupt-digest") {
      o.corrupt_digest = true;
    } else if (arg == "--print-digests") {
      o.print_digests = true;
    } else {
      usage_error("unknown option");
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Workload* wp = find_workload(opt.workload);
  if (wp == nullptr) usage_error("unknown workload");
  const Workload& w = *wp;
  const std::size_t runs = opt.tiny ? w.tiny_runs : w.runs;
  const std::string report_path =
      opt.out_dir + "/report-" + std::string(w.name) + ".json";

  if (opt.print_digests) {
    const SweepResult r = run_sweep(w, opt.seed, runs, report_path);
    for (const runner::RunMetrics& run : r.runs) {
      std::printf("%.*s %s %llu %s\n", static_cast<int>(w.name.size()),
                  w.name.data(), run.variant.c_str(),
                  static_cast<unsigned long long>(run.seed),
                  hex64(outcome_digest(run)).c_str());
    }
    return 0;
  }

  Pins pins;
  if (opt.digests.empty() || !pins.load(opt.digests, w.name)) {
    usage_error("cannot read the pinned digests (--digests FILE)");
  }
  const bool require_pin = opt.seed == kDefaultSeed;
  const std::vector<Replica> replicas = workload_replicas(w, opt.seed, runs);

  util::Summary setup_ms;
  util::Summary setup_batch_s;  // each batch's median pass total
  auto setup_batch = [&] {
    setup_batch_s.add(median(
        opt.tiny ? setup_passes(replicas, 1, 0.0, setup_ms)
                 : setup_passes(replicas, kSetupBatchPasses, kSetupBatchSeconds,
                                setup_ms)));
  };

  // Closed loop: whole sweeps back to back, each after a set-up batch,
  // until the time is spent. The
  // traced run pairs each sweep with the same runner call, tracer on, for
  // obs.trace_overhead_pct; those calls stay out of the ledger. Which of
  // the two goes first alternates, so neither always meets colder caches.
  Tally tally;
  SweepLedger ledger;
  std::map<std::string, std::uint64_t> digests;  // by replica_key
  std::vector<double> traced_call_s;
  // Peak RSS as one sweep in a fresh process leaves it; later sweeps and
  // set-up batches only move it by heap fragmentation.
  double peak_mb = 0.0;
  const auto measure_start = Clock::now();
  do {
    setup_batch();
    const bool traced_first = opt.trace && ledger.sweep_s.size() % 2 == 1;
    if (traced_first) {
      traced_call_s.push_back(traced_sweep_s(w, opt.seed, runs, digests, tally));
    }
    SweepResult r = run_sweep(w, opt.seed, runs, report_path);
    if (opt.corrupt_digest && ledger.sweep_s.empty() && !r.runs.empty()) {
      pins.corrupt(r.runs.front());
    }
    check_outcomes(w, r.runs, pins, require_pin, tally);
    for (const runner::RunMetrics& run : r.runs) {
      digests[replica_key(run.variant, run.seed)] = outcome_digest(run);
    }
    ledger.add(r);
    if (ledger.sweep_s.size() == 1) peak_mb = peak_rss_mb();
    if (opt.trace && !traced_first) {
      traced_call_s.push_back(traced_sweep_s(w, opt.seed, runs, digests, tally));
    }
  } while (seconds_since(measure_start) < opt.seconds);
  setup_batch();

  std::fprintf(stderr,
               "%.*s: seed=%llu %zu sweep(s), %zu replicas timed, replica_ms_p50 "
               "over %zu variant medians, p90 over %zu replica medians, "
               "report %zu bytes\n",
               static_cast<int>(w.name.size()), w.name.data(),
               static_cast<unsigned long long>(opt.seed), ledger.sweep_s.size(),
               ledger.replicas_timed, ledger.wall_ms.size(),
               ledger.replica_ms().count(), ledger.report_bytes);
  std::fprintf(stderr, "sweep_s samples:");
  for (const double t : ledger.sweep_s) std::fprintf(stderr, " %.4f", t);
  std::fprintf(stderr, "\n");

  if (!opt.trace) {
    emit(tally,
         {
             {"sweep_s", median(ledger.sweep_s), "s"},
             {"replica_ms_p50", ledger.variant_median_ms(), "ms"},
             {"replica_ms_p90", ledger.replica_ms().percentile(0.9), "ms"},
             {"sim_s_per_wall_s", ratio(ledger.sim_s_total, ledger.replica_s_total),
              "s/s"},
             {"setup_s", setup_batch_s.mean(), "s"},
             {"peak_rss_mb", peak_mb, "MB"},
             {"report_mb", static_cast<double>(ledger.report_bytes) / 1e6, "MB"},
         });
    return 0;
  }

  // Profiled passes: their timings feed only the per-layer metrics. The
  // DH kernel is timed on both sides of them, so a slow spell of the host
  // weighs on half the samples at most.
  std::vector<double> dh_ms;
  time_dh_ops(dh_ms);
  std::vector<TracedPass> passes;
  const auto traced_start = Clock::now();
  do {
    passes.push_back(traced_pass(replicas, digests, tally));
  } while (seconds_since(traced_start) < opt.seconds);
  time_dh_ops(dh_ms);
  const double trace_overhead_pct =
      (ratio(median(traced_call_s), median(ledger.call_s)) - 1.0) * 100.0;
  emit(tally, layer_metrics(w, ledger, setup_ms, passes, trace_overhead_pct,
                            median(dh_ms), tally));
  return 0;
}
