// Spatial-grid medium + metro world tests: grid-vs-flat equivalence (the
// grid is an indexing structure, not a physics change — a world that fits
// in one cell neighborhood must produce byte-identical results), the same
// equivalence under scripted churn with delivery-plan RSSI reuse and the
// pair cache on or off, cell and lane membership consistency under churn,
// localized plan invalidation, chaos-delayed delivery revalidation, and
// metro sweep determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "phy/medium.hpp"
#include "runner/scenarios.hpp"
#include "runner/sweep.hpp"
#include "scenario/corp_world.hpp"
#include "scenario/hotspot.hpp"
#include "scenario/metro_world.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"
#include "util/prng.hpp"

namespace rogue {
namespace {

using phy::Medium;
using phy::MediumConfig;
using phy::Position;
using phy::Radio;
using runner::ExperimentRunner;
using runner::SweepConfig;
using util::to_bytes;

MediumConfig grid_config() {
  MediumConfig cfg;
  cfg.spatial_grid = true;
  return cfg;
}

// ---- Grid-vs-flat equivalence -------------------------------------------

// A dense single-neighborhood world run under both geometries with the
// same seed must produce the exact same delivery log: same receivers, in
// the same order, with the same post-noise RSSI — because the grid only
// changes *which plan entries exist*, never the RNG draw sequence, and in
// a one-cell world the entry sets coincide.
TEST(GridEquivalence, DenseWorldDeliveryLogMatchesFlat) {
  const auto run_world = [](bool grid) {
    sim::Simulator sim{42};
    MediumConfig cfg;
    cfg.spatial_grid = grid;
    Medium medium(sim, cfg);

    std::deque<Radio> radios;
    std::vector<std::string> log;
    util::Prng layout(7);  // same layout both runs
    for (int i = 0; i < 16; ++i) {
      Radio& r = radios.emplace_back(medium, "r" + std::to_string(i));
      r.set_position({layout.uniform01() * 100.0, layout.uniform01() * 100.0});
      if (i % 5 == 0) r.set_channel(6);  // a few off-channel radios
      r.set_receive_handler([&log, i, &sim](util::ByteView frame,
                                            const phy::RxInfo& info) {
        char line[96];
        std::snprintf(line, sizeof line, "rx=%d len=%zu rssi=%.6f t=%llu", i,
                      frame.size(), info.rssi_dbm,
                      static_cast<unsigned long long>(sim.now()));
        log.emplace_back(line);
      });
    }
    // Spaced transmissions (no CSMA overlap) plus one same-instant pair so
    // the collision path is exercised identically too.
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 16; ++i) {
        const sim::Time at =
            static_cast<sim::Time>(round * 16 + i) * 5'000 + 1'000;
        sim.at(at, [&radios, idx = static_cast<std::size_t>(i)] {
          radios[idx].transmit(to_bytes("payload"));
        });
      }
    }
    sim.at(400'000, [&radios] {
      radios[1].transmit(to_bytes("overlap-a"));
      radios[2].transmit(to_bytes("overlap-b"));
    });
    sim.run();
    log.push_back("tx=" + std::to_string(medium.frames_transmitted()) +
                  " col=" + std::to_string(medium.collisions()));
    return log;
  };

  const std::vector<std::string> flat = run_world(false);
  const std::vector<std::string> grid = run_world(true);
  ASSERT_GT(flat.size(), 50u);  // the world actually delivered traffic
  EXPECT_EQ(grid, flat);
}

// Whole-report equivalence at sweep level: the corp ladder (an office-
// sized world) serialized byte-for-byte identically with the grid on.
TEST(GridEquivalence, CorpReportBytesMatchFlat) {
  const auto run_sweep = [](bool grid) {
    SweepConfig cfg;
    cfg.scenario = "corp";
    cfg.seed_base = 3;
    cfg.runs = 2;
    cfg.jobs = 2;
    ExperimentRunner exp(cfg);

    scenario::CorpConfig baseline;
    baseline.medium.spatial_grid = grid;
    exp.add_variant("baseline", [baseline](std::uint64_t) {
      return std::make_unique<scenario::CorpWorld>(baseline);
    });

    scenario::CorpConfig rogue;
    rogue.deploy_rogue = true;
    rogue.medium.spatial_grid = grid;
    exp.add_variant("rogue", [rogue](std::uint64_t) {
      return std::make_unique<scenario::CorpWorld>(rogue);
    });

    return exp.run().to_json().dump(2);
  };

  const std::string flat = run_sweep(false);
  ASSERT_FALSE(flat.empty());
  EXPECT_EQ(run_sweep(true), flat);
}

// Same contract on the hostile-hotspot world.
TEST(GridEquivalence, HotspotReportBytesMatchFlat) {
  const auto run_sweep = [](bool grid) {
    SweepConfig cfg;
    cfg.scenario = "hotspot";
    cfg.seed_base = 11;
    cfg.runs = 2;
    cfg.jobs = 2;
    ExperimentRunner exp(cfg);

    scenario::HotspotConfig hostile;
    hostile.hostile = true;
    hostile.medium.spatial_grid = grid;
    exp.add_variant("hostile", [hostile](std::uint64_t) {
      return std::make_unique<scenario::HotspotWorld>(hostile);
    });

    return exp.run().to_json().dump(2);
  };

  const std::string flat = run_sweep(false);
  ASSERT_FALSE(flat.empty());
  EXPECT_EQ(run_sweep(true), flat);
}

// Randomized equivalence under churn: a scripted history of moves (some
// across a cell border), channel hops, tx-power and sensitivity retunes,
// trim_tx_state(), detach-then-attach, and one forced regrid, with
// transmissions in between. Every radio stays inside one
// neighborhood, so the grid and flat geometries must deliver to the same
// receivers in the same order with bit-identical RSSI, and so must the
// pair cache on and off. The reference run trims every radio's plan before
// each transmission, so no rebuild there can carry a row over: a plan that
// reuses a row's RSSI has to reproduce exactly what pair_rssi() returns.
//
// A re-attached radio is allocated right after the old one is freed, so it
// usually gets the same address (the ABA case): a rebuild that carried
// rows over across a detach would follow a freed receiver pointer (ASan
// reports it) or take the newcomer for the radio it replaced.
struct ChurnResult {
  std::vector<std::string> log;
  std::uint64_t rssi_lookups = 0;
  std::uint64_t rssi_computed = 0;
};

ChurnResult scripted_churn(bool grid, bool pair_cache, bool trim_before_tx) {
  // Derived cell side at the default power ceiling / sensitivity floor; the
  // layout spans [0.5, 1.5) cells so moves cross a border in both axes.
  const double cell = [] {
    sim::Simulator probe_sim{1};
    return Medium(probe_sim, grid_config()).grid_cell_size_m();
  }();
  sim::Simulator sim{31};
  MediumConfig cfg;
  cfg.spatial_grid = grid;
  cfg.pair_rssi_cache = pair_cache;
  Medium medium(sim, cfg);

  constexpr std::size_t kSlots = 20;
  constexpr phy::Channel kPlan[3] = {1, 6, 11};
  util::Prng script(2024);  // the same script for every geometry
  ChurnResult out;
  std::vector<int> generation(kSlots, 0);
  std::vector<std::unique_ptr<Radio>> radios(kSlots);
  const auto random_pos = [&script, cell] {
    return Position{cell * (0.5 + script.uniform01()),
                    cell * (0.5 + script.uniform01())};
  };
  const auto attach = [&](std::size_t slot) {
    const std::string name =
        "r" + std::to_string(slot) + "." + std::to_string(generation[slot]++);
    radios[slot] = std::make_unique<Radio>(medium, name);
    Radio& r = *radios[slot];
    r.set_position(random_pos());
    r.set_channel(kPlan[script.uniform_u64(0, 2)]);
    r.set_receive_handler([&out, &sim, name](util::ByteView frame,
                                             const phy::RxInfo& info) {
      char line[128];
      std::snprintf(line, sizeof line, "t=%llu rx=%s ch=%u len=%zu rssi=%.17g",
                    static_cast<unsigned long long>(sim.now()), name.c_str(),
                    static_cast<unsigned>(info.channel), frame.size(),
                    info.rssi_dbm);
      out.log.emplace_back(line);
    });
  };
  for (std::size_t slot = 0; slot < kSlots; ++slot) attach(slot);

  constexpr int kSteps = 300;
  for (int step = 0; step < kSteps; ++step) {
    const std::size_t slot = script.uniform_u64(0, kSlots - 1);
    Radio& r = *radios[slot];
    const std::uint64_t op = script.uniform_u64(0, 9);
    if (step == kSteps / 2) {
      r.set_tx_power_dbm(20.0);  // above the grid's power ceiling: regrid
    } else if (op <= 2) {
      r.set_position(random_pos());
    } else if (op <= 4) {
      r.set_channel(kPlan[script.uniform_u64(0, 2)]);
    } else if (op == 5) {
      r.set_tx_power_dbm(10.0 + script.uniform01() * 5.0);
    } else if (op == 6) {
      r.set_sensitivity_dbm(-85.0 + script.uniform01() * 15.0);
    } else if (op == 7) {
      r.trim_tx_state();
    } else if (op == 8) {
      radios[slot].reset();
      attach(slot);
    }  // op 9: no change; the next plan is reused as is
    // Two spaced transmissions per step, so unchanged plans get reused
    // and changed ones rebuilt with most rows carried over.
    for (int k = 0; k < 2; ++k) {
      const std::size_t sender = script.uniform_u64(0, kSlots - 1);
      sim.after(static_cast<sim::Time>(2'000 * (k + 1)), [&, sender, step] {
        if (trim_before_tx) {
          for (auto& radio : radios) radio->trim_tx_state();
        }
        radios[sender]->transmit(to_bytes("step" + std::to_string(step)));
      });
    }
    sim.run();
  }
  out.log.push_back("tx=" + std::to_string(medium.frames_transmitted()) +
                    " col=" + std::to_string(medium.collisions()));
  const obs::StatsSnapshot stats = sim.stats().snapshot();
  out.rssi_computed = stats.value("phy.rssi_cache_misses");
  out.rssi_lookups = out.rssi_computed + stats.value("phy.rssi_cache_hits");
  return out;
}

TEST(GridEquivalence, ScriptedChurnLogsMatchAcrossGeometryAndPairCache) {
  const ChurnResult reference = scripted_churn(false, false, true);
  ASSERT_GT(reference.log.size(), 1000u);  // the world delivered traffic
  EXPECT_EQ(reference.rssi_computed, reference.rssi_lookups);  // no reuse
  EXPECT_EQ(scripted_churn(false, true, false).log, reference.log);
  EXPECT_EQ(scripted_churn(true, true, false).log, reference.log);
  EXPECT_EQ(scripted_churn(false, false, false).log, reference.log);
  const ChurnResult grid_direct = scripted_churn(true, false, false);
  EXPECT_EQ(grid_direct.log, reference.log);
  // With the pair cache off every computed RSSI counts as a miss, so the
  // remaining lookups are rows a rebuild carried over: reuse happened, and
  // the logs above show it changed nothing.
  EXPECT_LT(grid_direct.rssi_computed, grid_direct.rssi_lookups);
}

// ---- Cell membership under churn ----------------------------------------

// Property test: after an arbitrary attach/detach/move/retune/channel-hop
// history, every live radio is findable in exactly the cell its position
// maps to, and no cell holds radios that do not map back to it. Cells
// list members on every channel; within a cell each radio sits in exactly
// the lane of its current channel.
TEST(Grid, CellMembershipMatchesBruteForce) {
  sim::Simulator sim{5};
  Medium medium(sim, grid_config());
  ASSERT_TRUE(medium.grid_enabled());
  ASSERT_GT(medium.grid_cell_size_m(), 0.0);

  std::vector<std::unique_ptr<Radio>> radios;
  std::set<std::pair<std::int32_t, std::int32_t>> coords_ever;
  util::Prng rng(99);
  const auto random_pos = [&rng] {
    return Position{rng.uniform01() * 2000.0 - 500.0,
                    rng.uniform01() * 2000.0 - 500.0};
  };

  // Radios are named "p<step>" at attach, so the step number is the
  // attach order that cells and lanes must keep.
  const auto attach_order = [](const std::vector<const Radio*>& members) {
    return std::is_sorted(members.begin(), members.end(),
                          [](const Radio* a, const Radio* b) {
                            return std::stoi(a->name().substr(1)) <
                                   std::stoi(b->name().substr(1));
                          });
  };
  constexpr phy::Channel kHopPlan[3] = {1, 6, 11};
  // Each live radio sits in exactly one lane of its cell: its channel's.
  const auto verify_lanes = [&] {
    for (const auto& r : radios) {
      if (!r) continue;
      const auto c = medium.grid_coords(r->position());
      for (const phy::Channel ch : kHopPlan) {
        const auto lane = medium.grid_lane_members(c.first, c.second, ch);
        EXPECT_EQ(std::count(lane.begin(), lane.end(), r.get()),
                  ch == r->channel() ? 1 : 0)
            << r->name() << " in lane " << int{ch} << " of its cell";
        EXPECT_TRUE(attach_order(lane)) << "lane " << int{ch} << " order";
      }
    }
  };

  const auto verify = [&] {
    // Forward direction: each live radio is a member of its own cell,
    // exactly once.
    std::map<std::pair<std::int32_t, std::int32_t>, std::size_t> expect_count;
    for (const auto& r : radios) {
      if (!r) continue;
      const auto c = medium.grid_coords(r->position());
      ++expect_count[c];
      const auto members = medium.grid_cell_members(c.first, c.second);
      EXPECT_EQ(std::count(members.begin(), members.end(), r.get()), 1)
          << r->name() << " not exactly once in its cell";
      EXPECT_TRUE(attach_order(members)) << r->name() << "'s cell order";
    }
    // Reverse direction: every cell ever occupied holds exactly the
    // radios that currently map to it (stale members would show here).
    for (const auto& c : coords_ever) {
      const auto members = medium.grid_cell_members(c.first, c.second);
      const auto it = expect_count.find(c);
      const std::size_t expected = it == expect_count.end() ? 0 : it->second;
      EXPECT_EQ(members.size(), expected)
          << "cell (" << c.first << "," << c.second << ") stale membership";
    }
  };

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = rng.uniform_u64(0, 9);
    if (op <= 2 || radios.empty()) {  // attach
      auto r = std::make_unique<Radio>(medium,
                                       "p" + std::to_string(step));
      r->set_position(random_pos());
      coords_ever.insert(medium.grid_coords(r->position()));
      radios.push_back(std::move(r));
    } else {
      const std::size_t idx = rng.uniform_u64(0, radios.size() - 1);
      if (!radios[idx]) continue;
      Radio& r = *radios[idx];
      if (op <= 5) {  // move (often within-cell, sometimes across)
        Position p = r.position();
        if (rng.chance(0.5)) {
          p.x += rng.uniform01() * 10.0 - 5.0;
          p.y += rng.uniform01() * 10.0 - 5.0;
        } else {
          p = random_pos();
        }
        r.set_position(p);
        coords_ever.insert(medium.grid_coords(p));
      } else if (op == 6) {  // channel hop: moves the radio between lanes
        r.set_channel(kHopPlan[rng.uniform_u64(0, 2)]);
        verify_lanes();
      } else if (op == 7) {  // retune within the configured bounds
        r.set_sensitivity_dbm(-85.0 + rng.uniform01() * 20.0);
      } else {  // detach
        radios[idx].reset();
      }
    }
    if (step % 40 == 0) verify();
  }
  verify();
  verify_lanes();
}

// ---- Localized invalidation ---------------------------------------------

// The point of per-cell epochs: churn far outside a sender's neighborhood
// must not invalidate its delivery plan. The flat path (one world epoch)
// rebuilds on any movement — that contrast is what the grid removes.
TEST(Grid, FarAwayMovementKeepsPlansValid) {
  const auto rebuilds_after_far_churn = [](bool grid) {
    sim::Simulator sim{9};
    MediumConfig cfg;
    cfg.spatial_grid = grid;
    Medium medium(sim, cfg);
    Radio tx(medium, "tx");
    Radio rx(medium, "rx");
    rx.set_position({5.0, 0.0});
    rx.set_receive_handler([](util::ByteView, const phy::RxInfo&) {});
    Radio far1(medium, "far1");
    far1.set_position({50'000.0, 50'000.0});
    Radio far2(medium, "far2");
    far2.set_position({50'010.0, 50'000.0});

    sim.at(1'000, [&] { tx.transmit(to_bytes("one")); });
    // Distant churn between the two transmissions.
    sim.at(10'000, [&] { far1.set_position({50'020.0, 50'000.0}); });
    sim.at(11'000, [&] { far2.set_position({50'030.0, 50'010.0}); });
    sim.at(20'000, [&] { tx.transmit(to_bytes("two")); });
    sim.run();
    return medium.plan_rebuilds();
  };

  // Grid: one build for the sender, still valid after far churn.
  EXPECT_EQ(rebuilds_after_far_churn(true), 1u);
  // Flat: the same churn costs a rebuild (world epoch moved).
  EXPECT_EQ(rebuilds_after_far_churn(false), 2u);
}

// Lanes: a plan depends only on its own channel's lanes. An off-channel
// radio moving or hopping between other channels right next to the sender
// must not rebuild the sender's plan; a hop onto the sender's channel must,
// and the newcomer must then receive.
TEST(Grid, OffChannelChurnKeepsPlansValid) {
  sim::Simulator sim{9};
  Medium medium(sim, grid_config());
  Radio tx(medium, "tx");  // channel 1
  Radio rx(medium, "rx");
  rx.set_position({5.0, 0.0});
  int rx_received = 0;
  rx.set_receive_handler(
      [&rx_received](util::ByteView, const phy::RxInfo&) { ++rx_received; });
  Radio scanner(medium, "scanner");  // same cell as the sender
  scanner.set_position({10.0, 0.0});
  scanner.set_channel(6);
  int scanner_received = 0;
  scanner.set_receive_handler([&scanner_received](util::ByteView,
                                                  const phy::RxInfo&) {
    ++scanner_received;
  });

  sim.at(1'000, [&] { tx.transmit(to_bytes("one")); });
  sim.at(5'000, [&] { scanner.set_position({12.0, 0.0}); });
  sim.at(6'000, [&] { scanner.set_channel(11); });
  sim.at(7'000, [&] { scanner.set_position({14.0, 3.0}); });
  sim.at(8'000, [&] { scanner.set_channel(6); });
  sim.at(20'000, [&] { tx.transmit(to_bytes("two")); });
  sim.run();
  EXPECT_EQ(medium.plan_rebuilds(), 1u);
  EXPECT_EQ(rx_received, 2);
  EXPECT_EQ(scanner_received, 0);

  sim.at(30'000, [&] { scanner.set_channel(1); });
  sim.at(40'000, [&] { tx.transmit(to_bytes("three")); });
  sim.run();
  EXPECT_EQ(medium.plan_rebuilds(), 2u);
  EXPECT_EQ(rx_received, 3);
  EXPECT_EQ(scanner_received, 1);
}

// Movement *inside* the neighborhood must still invalidate.
TEST(Grid, NearbyMovementInvalidatesPlan) {
  sim::Simulator sim{9};
  Medium medium(sim, grid_config());
  Radio tx(medium, "tx");
  Radio rx(medium, "rx");
  rx.set_position({5.0, 0.0});
  int received = 0;
  rx.set_receive_handler(
      [&received](util::ByteView, const phy::RxInfo&) { ++received; });

  sim.at(1'000, [&] { tx.transmit(to_bytes("one")); });
  sim.at(10'000, [&] { rx.set_position({8.0, 0.0}); });  // same cell
  sim.at(20'000, [&] { tx.transmit(to_bytes("two")); });
  sim.run();
  EXPECT_EQ(medium.plan_rebuilds(), 2u);
  EXPECT_EQ(received, 2);
}

// ---- Chaos-delayed delivery across cell migration -----------------------

// Regression for the deliver_late() re-validation: a frame held back by
// transport chaos must not land on a receiver that migrated out of the
// sender's 3x3 neighborhood while the frame was in flight. (The flat
// medium has no such notion — only channel and liveness gate the late
// delivery there.)
TEST(Grid, ChaosDelayedFrameDroppedAfterCellMigration) {
  const auto run_once = [](bool migrate) {
    sim::Simulator sim{17};
    Medium medium(sim, grid_config());
    medium.set_reorder(1.0);  // every delivery goes through deliver_late
    Radio tx(medium, "tx");
    Radio rx(medium, "rx");
    rx.set_position({5.0, 0.0});
    int received = 0;
    rx.set_receive_handler(
        [&received](util::ByteView, const phy::RxInfo&) { ++received; });

    sim.at(0, [&] { tx.transmit(to_bytes("held")); });
    // The hold is 500..3000 us past the ~300 us delivery event; at 400 us
    // the frame is in flight. Teleport the receiver ten-plus cells away.
    if (migrate) {
      sim.at(400, [&] { rx.set_position({5'000.0, 5'000.0}); });
    } else {
      sim.at(400, [&] { rx.set_position({8.0, 0.0}); });  // same cell
    }
    sim.run();
    return received;
  };

  EXPECT_EQ(run_once(false), 1);  // control: within-cell move still lands
  EXPECT_EQ(run_once(true), 0);   // migrated: audibility re-check drops it
}

// ---- Metro world --------------------------------------------------------

scenario::MetroConfig small_metro(std::size_t rogues, bool grid) {
  scenario::MetroConfig cfg;
  cfg.ap_cols = 3;
  cfg.ap_rows = 2;
  cfg.sta_count = 96;
  cfg.rogue_count = rogues;
  cfg.episode_duration = 6 * sim::kSecond;
  cfg.spatial_grid = grid;
  return cfg;
}

// The metro sweep report must be byte-identical across worker counts —
// the CI smoke runs the stock ladder; this covers the machinery at unit
// scale (including a flat variant, so both delivery geometries are under
// the determinism contract).
TEST(Metro, ReportBytesIdenticalAcrossJobs) {
  const auto run_once = [](std::size_t jobs) {
    SweepConfig cfg;
    cfg.scenario = "metro";
    cfg.seed_base = 21;
    cfg.runs = 2;
    cfg.jobs = jobs;
    ExperimentRunner exp(cfg);
    for (const std::size_t rogues : {std::size_t{0}, std::size_t{2}}) {
      const auto mk = small_metro(rogues, true);
      exp.add_variant(rogues == 0 ? "baseline" : "twin",
                      [mk](std::uint64_t) {
                        return std::make_unique<scenario::MetroWorld>(mk);
                      });
    }
    const auto flat = small_metro(2, false);
    exp.add_variant("twin-flat", [flat](std::uint64_t) {
      return std::make_unique<scenario::MetroWorld>(flat);
    });
    return exp.run().to_json().dump(2);
  };

  const std::string baseline = run_once(1);
  ASSERT_NE(baseline.find("\"metro\""), std::string::npos);
  for (const std::size_t jobs : {4u, 8u}) {
    EXPECT_EQ(run_once(jobs), baseline) << "bytes changed at jobs=" << jobs;
  }
}

// The scenario's reason to exist: evil twins advertising the ESS attract
// real associations (network promiscuity at scale), while a rogue-free
// world shows none; and the population mostly ends up associated.
TEST(Metro, EvilTwinsAttractPromiscuousAssociations) {
  scenario::MetroWorld benign(small_metro(0, true));
  benign.configure(1);
  benign.run_episode();
  const auto base = benign.collect_metrics();
  ASSERT_TRUE(base.metro_enabled);
  EXPECT_EQ(base.metro_promiscuous_assocs, 0u);
  EXPECT_GT(base.metro_assoc_fraction, 0.5);
  EXPECT_GT(base.metro_associations, 0u);

  scenario::MetroWorld hostile(small_metro(4, true));
  hostile.configure(1);
  hostile.run_episode();
  const auto twin = hostile.collect_metrics();
  EXPECT_GT(twin.metro_promiscuous_assocs, 0u);
  EXPECT_GT(twin.metro_promiscuous_rate, 0.0);
}

// The stock ladders resolve and expose the acceptance-scale city config.
TEST(Metro, StockVariantsRegistered) {
  const auto metro = runner::stock_variants("metro", 0.0);
  ASSERT_EQ(metro.size(), 3u);
  EXPECT_EQ(metro[0].name, "baseline");
  EXPECT_EQ(metro[1].name, "evil-twin");
  EXPECT_EQ(metro[2].name, "flat-ref");

  const auto city = runner::stock_variants("metro-city", 0.0);
  ASSERT_EQ(city.size(), 1u);
  EXPECT_EQ(city[0].name, "city");
}

}  // namespace
}  // namespace rogue
