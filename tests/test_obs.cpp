// Observability-layer tests: StatsRegistry semantics (interning, scrap
// slots, histogram bucketing), snapshot JSON round-trip, profiler scoping,
// pcap serialize/parse round-trip — including the acceptance-criterion
// round-trip over a real corp-world radio capture — and stats determinism
// across sweep worker counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/pcap.hpp"
#include "obs/profiler.hpp"
#include "obs/stats.hpp"
#include "runner/sweep.hpp"
#include "scenario/corp_world.hpp"
#include "sim/simulator.hpp"

namespace rogue::obs {
namespace {

TEST(StatsRegistry, CounterAddAndValue) {
  StatsRegistry reg;
  CounterId c = reg.counter("net.ip.sent");
  EXPECT_EQ(reg.value(c), 0u);
  reg.add(c);
  reg.add(c, 41);
  EXPECT_EQ(reg.value(c), 42u);
}

TEST(StatsRegistry, InternIsIdempotent) {
  // Two components interning the same name share one slot — this is what
  // makes "all STAs" aggregate instead of shadowing each other.
  StatsRegistry reg;
  CounterId a = reg.counter("dot11.sta.scans");
  CounterId b = reg.counter("dot11.sta.scans");
  EXPECT_EQ(a.slot, b.slot);
  reg.add(a);
  reg.add(b);
  EXPECT_EQ(reg.value(a), 2u);
  EXPECT_EQ(reg.metric_count(), 1u);
}

TEST(StatsRegistry, DefaultHandleHitsScrapSlotHarmlessly) {
  // A component constructed without wiring must be able to increment
  // without faulting and without polluting any named metric.
  StatsRegistry reg;
  CounterId named = reg.counter("phy.tx_frames");
  CounterId inert;  // default: scrap slot
  GaugeId inert_gauge;
  HistogramId inert_hist;
  reg.add(inert, 1000);
  reg.set(inert_gauge, 77);
  reg.observe(inert_hist, 5);
  EXPECT_EQ(reg.value(named), 0u);
  EXPECT_TRUE(reg.snapshot().entries.size() == 1);
}

TEST(StatsRegistry, GaugeTracksHighWater) {
  StatsRegistry reg;
  GaugeId g = reg.gauge("sim.heap_size");
  reg.set(g, 10);
  reg.set(g, 25);
  reg.set(g, 7);
  EXPECT_EQ(reg.value(g), 7u);
  EXPECT_EQ(reg.high_water(g), 25u);
}

TEST(StatsRegistry, HistogramBucketsOnInclusiveUpperBounds) {
  StatsRegistry reg;
  HistogramId h = reg.histogram("phy.frame_bytes", {64, 256, 1024});
  reg.observe(h, 64);    // first bucket (inclusive bound)
  reg.observe(h, 65);    // second
  reg.observe(h, 256);   // second
  reg.observe(h, 1000);  // third
  reg.observe(h, 4000);  // +inf overflow bucket
  StatsSnapshot snap = reg.snapshot();
  const StatsSnapshot::Entry* e = snap.find("phy.frame_bytes");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, MetricKind::kHistogram);
  ASSERT_EQ(e->hist.buckets.size(), 4u);
  EXPECT_EQ(e->hist.buckets[0], 1u);
  EXPECT_EQ(e->hist.buckets[1], 2u);
  EXPECT_EQ(e->hist.buckets[2], 1u);
  EXPECT_EQ(e->hist.buckets[3], 1u);
  EXPECT_EQ(e->hist.count, 5u);
  EXPECT_EQ(e->hist.sum, 64u + 65 + 256 + 1000 + 4000);
}

TEST(StatsRegistry, ResetZeroesValuesButKeepsHandles) {
  StatsRegistry reg;
  CounterId c = reg.counter("vpn.client.records_out");
  GaugeId g = reg.gauge("sim.pool.size");
  reg.add(c, 9);
  reg.set(g, 5);
  reg.reset();
  EXPECT_EQ(reg.value(c), 0u);
  EXPECT_EQ(reg.value(g), 0u);
  EXPECT_EQ(reg.high_water(g), 0u);
  reg.add(c);  // old handle still valid
  EXPECT_EQ(reg.value(c), 1u);
  EXPECT_EQ(reg.counter("vpn.client.records_out").slot, c.slot);
}

TEST(StatsSnapshot, SortedLookupAndValue) {
  StatsRegistry reg;
  reg.add(reg.counter("z.last"), 3);
  reg.add(reg.counter("a.first"), 1);
  StatsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(snap.entries[0].name, "a.first");
  EXPECT_EQ(snap.entries[1].name, "z.last");
  EXPECT_EQ(snap.value("z.last"), 3u);
  EXPECT_EQ(snap.value("missing"), 0u);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(StatsSnapshot, JsonRoundTrip) {
  StatsRegistry reg;
  reg.add(reg.counter("net.tcp.segments_sent"), 123);
  GaugeId g = reg.gauge("sim.heap_size");
  reg.set(g, 40);
  reg.set(g, 12);
  HistogramId h = reg.histogram("phy.frame_bytes", {128, 512});
  reg.observe(h, 100);
  reg.observe(h, 600);

  StatsSnapshot snap = reg.snapshot();
  const std::string text = snap.to_json().dump(2);
  const auto parsed = util::Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  StatsSnapshot back = StatsSnapshot::from_json(*parsed);

  ASSERT_EQ(back.entries.size(), snap.entries.size());
  EXPECT_EQ(back.value("net.tcp.segments_sent"), 123u);
  const StatsSnapshot::Entry* gauge = back.find("sim.heap_size");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, 12u);
  EXPECT_EQ(gauge->high_water, 40u);
  const StatsSnapshot::Entry* hist = back.find("phy.frame_bytes");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count, 2u);
  EXPECT_EQ(hist->hist.sum, 700u);
  ASSERT_EQ(hist->hist.bounds.size(), 2u);
  EXPECT_EQ(hist->hist.bounds[1], 512u);
  // Serializing the parsed-back snapshot reproduces the bytes.
  EXPECT_EQ(back.to_json().dump(2), text);
}

TEST(Profiler, DisabledScopeRecordsNothing) {
  // Scopes on a disabled profiler are inert; zero-call scopes stay out of
  // the report entirely.
  Profiler prof;
  Profiler::ScopeId id = prof.intern("phy.deliver");
  { Profiler::Scope s(prof, id); }
  EXPECT_TRUE(prof.report().rows.empty());
}

TEST(Profiler, NestedScopesSplitSelfAndTotal) {
  Profiler prof;
  Profiler::ScopeId outer = prof.intern("sim.dispatch");
  Profiler::ScopeId inner = prof.intern("phy.deliver");
  prof.set_enabled(true);
  for (int i = 0; i < 100; ++i) {
    Profiler::Scope so(prof, outer);
    Profiler::Scope si(prof, inner);
  }
  Profiler::Report rep = prof.report();
  ASSERT_EQ(rep.rows.size(), 2u);
  std::uint64_t outer_total = 0, outer_self = 0, inner_total = 0;
  for (const Profiler::Row& r : rep.rows) {
    EXPECT_EQ(r.calls, 100u);
    if (r.name == "sim.dispatch") {
      outer_total = r.total_ns;
      outer_self = r.self_ns;
    } else {
      EXPECT_EQ(r.name, "phy.deliver");
      inner_total = r.total_ns;
    }
  }
  // The parent's total includes the child; its self time does not.
  EXPECT_GE(outer_total, inner_total);
  EXPECT_LE(outer_self, outer_total);
}

TEST(Profiler, ResetClearsTalliesKeepsNames) {
  Profiler prof;
  Profiler::ScopeId id = prof.intern("vpn.client.data");
  prof.set_enabled(true);
  { Profiler::Scope s(prof, id); }
  ASSERT_EQ(prof.report().rows.size(), 1u);
  prof.reset();
  EXPECT_TRUE(prof.report().rows.empty());
  // Interned handles survive the reset and keep tallying.
  EXPECT_EQ(prof.intern("vpn.client.data").index, id.index);
  { Profiler::Scope s(prof, id); }
  Profiler::Report rep = prof.report();
  ASSERT_EQ(rep.rows.size(), 1u);
  EXPECT_EQ(rep.rows[0].calls, 1u);
  EXPECT_EQ(rep.rows[0].name, "vpn.client.data");
}

TEST(Pcap, RoundTripSynthetic) {
  PcapWriter writer;
  const util::Bytes f1 = {0x80, 0x00, 0x00, 0x00};  // beacon-ish header
  const util::Bytes f2(1536, 0xAB);
  writer.add_frame(1'000'000, f1);
  writer.add_frame(2'500'123, f2);
  EXPECT_EQ(writer.frames(), 2u);

  const auto parsed = pcap_parse(writer.data());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->link_type, PcapWriter::kLinkTypeIeee80211);
  ASSERT_EQ(parsed->records.size(), 2u);
  EXPECT_EQ(parsed->records[0].timestamp_us, 1'000'000u);
  EXPECT_EQ(parsed->records[0].frame, f1);
  EXPECT_EQ(parsed->records[1].timestamp_us, 2'500'123u);
  EXPECT_EQ(parsed->records[1].frame, f2);
}

TEST(Pcap, RejectsMalformedImages) {
  EXPECT_FALSE(pcap_parse(util::Bytes{}).has_value());
  util::Bytes bad_magic(24, 0x00);
  EXPECT_FALSE(pcap_parse(bad_magic).has_value());
  // Truncated record header after a valid global header.
  PcapWriter writer;
  writer.add_frame(1, util::Bytes{0x01});
  util::Bytes truncated(writer.data().begin(), writer.data().end() - 1);
  EXPECT_FALSE(pcap_parse(truncated).has_value());
}

scenario::CorpConfig quick_corp() {
  scenario::CorpConfig cfg;
  cfg.settle_time = 2 * sim::kSecond;
  cfg.capture_window = 5 * sim::kSecond;
  cfg.download_window = 10 * sim::kSecond;
  return cfg;
}

TEST(Pcap, CorpWorldCaptureRoundTrips) {
  // Acceptance criterion: a .pcap generated from a corp-world capture
  // parses back with matching frame count, in time order, and conserves
  // frames: every transmission the medium counted is captured exactly once.
  scenario::CorpWorld world(quick_corp());
  PcapWriter writer;
  world.capture_frames(writer);
  world.configure(7);
  world.run_episode();
  ASSERT_GT(writer.frames(), 0u);

  const auto parsed = pcap_parse(writer.data());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->link_type, PcapWriter::kLinkTypeIeee80211);
  ASSERT_EQ(parsed->records.size(), writer.frames());
  EXPECT_EQ(parsed->records.size(),
            world.simulator().stats_snapshot().value("phy.tx_frames"));
  for (std::size_t i = 1; i < parsed->records.size(); ++i) {
    EXPECT_LE(parsed->records[i - 1].timestamp_us,
              parsed->records[i].timestamp_us);
    EXPECT_FALSE(parsed->records[i].frame.empty());
  }
}

TEST(Stats, CorpWorldPopulatesLayerCounters) {
  scenario::CorpWorld world(quick_corp());
  world.configure(7);
  world.run_episode();
  StatsSnapshot snap = world.simulator().stats_snapshot();
  // Every layer contributes: phy traffic, 802.11 management, ARP/IP/TCP,
  // and the kernel merges its own event counters into the snapshot.
  EXPECT_GT(snap.value("phy.tx_frames"), 0u);
  EXPECT_GT(snap.value("dot11.ap.beacons_tx"), 0u);
  EXPECT_GT(snap.value("net.arp.requests"), 0u);
  EXPECT_GT(snap.value("net.ip.sent"), 0u);
  EXPECT_GT(snap.value("net.tcp.segments_sent"), 0u);
  EXPECT_GT(snap.value("sim.events_fired"), 0u);
  const StatsSnapshot::Entry* hist = snap.find("phy.frame_bytes");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count, snap.value("phy.tx_frames"));
}

TEST(Stats, SameSeedSameSnapshot) {
  // A replica's stats are a pure function of (config, seed) — the property
  // that lets them join the byte-identical sweep report.
  std::string first;
  for (int rep = 0; rep < 2; ++rep) {
    scenario::CorpWorld world(quick_corp());
    world.configure(21);
    world.run_episode();
    const std::string text =
        world.simulator().stats_snapshot().to_json().dump(2);
    if (first.empty()) {
      first = text;
    } else {
      EXPECT_EQ(text, first);
    }
  }
}

TEST(Stats, SweepStatsJsonIdenticalAcrossThreadCounts) {
  std::string baseline;
  for (const std::size_t jobs : {1u, 4u}) {
    runner::SweepConfig cfg;
    cfg.scenario = "corp";
    cfg.seed_base = 50;
    cfg.runs = 2;
    cfg.jobs = jobs;
    runner::ExperimentRunner exp(cfg);
    exp.add_variant("baseline", [](std::uint64_t) {
      return std::make_unique<scenario::CorpWorld>(quick_corp());
    });
    const runner::SweepReport report = exp.run();
    const std::string text = report.stats_json().dump(2);
    ASSERT_NE(text.find("phy.tx_frames"), std::string::npos);
    if (baseline.empty()) {
      baseline = text;
    } else {
      EXPECT_EQ(text, baseline) << "stats diverged at jobs=" << jobs;
    }
  }
}

}  // namespace
}  // namespace rogue::obs
