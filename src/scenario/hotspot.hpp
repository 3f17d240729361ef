// Hostile Hotspot world (§1.2.2): a public hotspot whose *owner* is the
// attacker — no rogue AP needed, the infrastructure itself tampers with
// traffic. Models the "network promiscuity" threat (§3.2): a roaming
// client crosses administrative domains whose operators it cannot vet,
// and only an always-on VPN to its *home* network protects it everywhere.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/download.hpp"
#include "apps/http.hpp"
#include "apps/netsed.hpp"
#include "attack/attacker.hpp"
#include "attack/deauth.hpp"
#include "detect/detector.hpp"
#include "dot11/ap.hpp"
#include "faults/fault.hpp"
#include "dot11/sta.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "phy/medium.hpp"
#include "scenario/world.hpp"
#include "sim/simulator.hpp"
#include "vpn/client.hpp"
#include "vpn/endpoint.hpp"

namespace rogue::scenario {

struct HotspotConfig {
  std::uint64_t seed = 1;
  bool hostile = false;          ///< the hotspot owner tampers with traffic
  std::size_t release_size = 16 * 1024;
  vpn::Transport vpn_transport = vpn::Transport::kTcp;
  util::Bytes vpn_psk = util::to_bytes("home-vpn-preshared-authenticator");
  phy::MediumConfig medium;

  // Episode script (World::run_episode()): join the hotspot, optionally
  // bring the home VPN up first, then run the download workload.
  bool use_vpn = false;
  bool do_download = true;
  sim::Time settle_time = 3 * sim::kSecond;
  sim::Time vpn_window = 10 * sim::kSecond;
  sim::Time download_window = 60 * sim::kSecond;

  // Chaos (fault injection) episode knobs — see CorpConfig for semantics.
  bool inject_faults = false;
  faults::PlanConfig faults;
  bool vpn_auto_reconnect = false;
  bool vpn_fail_open = true;
  sim::Time deauth_period = 100 * sim::kMillisecond;
  sim::Time chatter_period = 500 * sim::kMillisecond;

  // WIDS tournament episode — see CorpConfig for semantics.
  std::vector<std::string> wids_detectors;
  std::string wids_attacker;
  sim::Time wids_baseline_window = 8 * sim::kSecond;
  sim::Time wids_attack_window = 20 * sim::kSecond;
};

struct HotspotAddresses {
  net::Ipv4Addr hotspot_lan{192, 168, 1, 1};
  net::Ipv4Addr client{192, 168, 1, 100};
  net::Ipv4Addr hotspot_wan{203, 0, 113, 200};
  net::Ipv4Addr web_server{203, 0, 113, 80};
  net::Ipv4Addr home_vpn{203, 0, 113, 5};
  std::uint16_t vpn_port = 7000;
};

class HotspotWorld final : public World, private faults::FaultTarget {
 public:
  explicit HotspotWorld(HotspotConfig config = {});

  // ---- World interface -----------------------------------------------------
  [[nodiscard]] std::string_view name() const override { return "hotspot"; }
  void configure(std::uint64_t seed) override;
  void run_episode() override;
  [[nodiscard]] Metrics collect_metrics() const override;
  [[nodiscard]] sim::Simulator& simulator() override { return sim_; }

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] const HotspotAddresses& addr() const { return addr_; }
  [[nodiscard]] const HotspotConfig& config() const { return config_; }

  void start() override;

  void capture_frames(obs::PcapWriter& pcap) override {
    medium_.set_pcap(&pcap);
  }

  /// Chaos: generate the seed-derived fault plan over the episode windows
  /// and schedule it. Called by run_episode() when inject_faults is set.
  void install_fault_plan();
  [[nodiscard]] const faults::Injector* fault_injector() const {
    return injector_.get();
  }
  [[nodiscard]] const TunnelHealth& tunnel_health() const { return health_; }

  /// Pluggable WIDS hooks — the hotspot operator (or a visiting auditor)
  /// watches its own airspace. See CorpWorld for semantics.
  bool attach_detector(std::string_view name) override;
  bool attach_attacker(std::string_view name) override;
  [[nodiscard]] detect::DetectorEnv detector_env();
  [[nodiscard]] attack::AttackerEnv attacker_env();
  void run_wids_episode();

  /// Client tunnels everything home before doing anything else.
  void connect_vpn(std::function<void(bool ok)> done);
  /// The download workload, from the client.
  void download(std::function<void(const apps::DownloadOutcome&)> done);

  void run_for(sim::Time duration) override {
    sim_.run_until(sim_.now() + duration);
  }

  [[nodiscard]] net::Host& client() { return *client_; }
  [[nodiscard]] dot11::Station& client_sta() { return *client_sta_; }
  [[nodiscard]] net::Host& hotspot_gw() { return *gw_; }
  [[nodiscard]] const std::string& release_md5() const { return release_->md5_hex; }
  [[nodiscard]] const std::string& trojan_md5() const { return trojan_->md5_hex; }

 private:
  void start_chatter();

  // faults::FaultTarget — how chaos lands on this world's components.
  void fault_ap(bool down) override;
  void fault_endpoint(bool down) override;
  void fault_channel(double extra_loss) override;
  void fault_link(bool down) override;
  void fault_deauth_storm(bool active) override;

  HotspotConfig config_;
  HotspotAddresses addr_;
  sim::Simulator sim_;
  phy::Medium medium_;
  net::Switch internet_;

  apps::ReleaseBlobPtr release_;
  apps::ReleaseBlobPtr trojan_;

  std::unique_ptr<dot11::AccessPoint> ap_;
  std::unique_ptr<net::Host> gw_;
  std::unique_ptr<apps::Netsed> netsed_;
  std::unique_ptr<apps::HttpServer> trojan_server_;

  std::unique_ptr<net::Host> web_;
  std::unique_ptr<apps::HttpServer> web_http_;
  std::unique_ptr<net::Host> home_;
  std::unique_ptr<vpn::Endpoint> endpoint_;

  std::unique_ptr<dot11::Station> client_sta_;
  std::unique_ptr<net::Host> client_;
  std::unique_ptr<vpn::ClientTunnel> tunnel_;

  std::unique_ptr<faults::Injector> injector_;
  std::unique_ptr<attack::DeauthAttacker> chaos_deauth_;
  std::vector<std::unique_ptr<detect::Detector>> detectors_;
  std::unique_ptr<attack::Attacker> attacker_;
  std::shared_ptr<net::UdpSocket> chatter_sock_;
  TunnelHealth health_;

  bool started_ = false;

  // Episode observations for collect_metrics().
  std::optional<sim::Time> wids_attack_start_;
  bool wids_enabled_ = false;
  std::optional<sim::Time> join_time_;
  std::optional<sim::Time> vpn_up_time_;
  bool vpn_ok_ = false;
  std::optional<apps::DownloadOutcome> outcome_;
};

}  // namespace rogue::scenario
