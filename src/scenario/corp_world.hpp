// CorpWorld: the paper's end-to-end testbed as a single composable world.
//
//   [web server 203.0.113.80] --- internet switch --- [corp gw 203.0.113.1
//                                                              10.0.0.1]
//                                                           |
//                                                     corp switch ---
//                                                     [vpn endpoint 10.0.0.5]
//                                                           |
//                                                     [legit AP "CORP" ch1]
//                                                        )))  (((
//      [victim 10.0.0.77]     [rogue gateway: eth1 client + wlan0 "CORP" ch6]
//
// Figure 1 = deploy_rogue(); Figure 2 = deploy_rogue() + download();
// Figure 3 = connect_vpn() + download(). Knobs cover WEP on/off, MAC
// filtering, join policy, signal geometry, deauth forcing, and the netsed
// matching mode.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/download.hpp"
#include "apps/http.hpp"
#include "attack/attacker.hpp"
#include "attack/deauth.hpp"
#include "attack/rogue_gateway.hpp"
#include "attack/sniffer.hpp"
#include "detect/detector.hpp"
#include "detect/seqnum.hpp"
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

struct CorpConfig {
  std::uint64_t seed = 1;

  // Link-layer "security" (the mechanisms §2.1 shows to be insufficient).
  bool wep = true;
  util::Bytes wep_key = util::to_bytes("SECRETWEPKEY1");  // 13 bytes (WEP-104)
  /// When set, overrides `wep`: kOpen / kWep / kWpaPsk (§2.2 extension —
  /// the rogue is configured with the same credentials either way).
  std::optional<dot11::SecurityMode> security;
  util::Bytes wpa_psk = util::to_bytes("corp-wpa-passphrase");
  crypto::WepIvPolicy iv_policy = crypto::WepIvPolicy::kSequential;
  dot11::AuthAlgorithm auth_algorithm = dot11::AuthAlgorithm::kOpenSystem;
  bool mac_filtering = true;

  // Geometry (meters from the victim).
  double victim_to_legit_m = 15.0;
  double victim_to_rogue_m = 8.0;
  phy::Channel legit_channel = 1;
  phy::Channel rogue_channel = 6;

  dot11::JoinPolicy victim_join_policy = dot11::JoinPolicy::kBestRssi;

  // Radio environment.
  phy::MediumConfig medium;

  // Download workload.
  std::size_t release_size = 16 * 1024;

  // Attack configuration.
  bool rogue_clones_bssid = true;  ///< Figure 1: same "AP MAC"
  apps::NetsedMode netsed_mode = apps::NetsedMode::kPerSegment;
  bool rewrite_link = true;  ///< netsed rule 1: href -> attacker mirror
  bool rewrite_md5 = true;   ///< netsed rule 2: REALMD5SUM -> FAKEMD5SUM

  /// TCP parameters applied to every host in the world (the MSS controls
  /// where TCP segments — and therefore netsed's match windows — split).
  net::TcpConfig tcp;

  // VPN configuration.
  vpn::Transport vpn_transport = vpn::Transport::kTcp;
  util::Bytes vpn_psk = util::to_bytes("corp-vpn-preshared-authenticator");
  /// Anti-replay window width (records) on both tunnel directions.
  std::size_t vpn_replay_window = 1024;
  /// Client-initiated rekey thresholds; 0 disables that trigger.
  std::uint64_t vpn_rekey_records = 0;
  sim::Time vpn_rekey_interval = 0;

  // Episode script (World::run_episode()). Which phases run, and for how
  // long. Defaults reproduce Figure 2's baseline: no attack, plain
  // download. Flip the booleans to get Figure 1 (deploy_rogue), Figure 2
  // (deploy_rogue + do_download) or Figure 3 (use_vpn + do_download).
  bool deploy_rogue = false;
  bool deauth_forcing = false;   ///< §4 forced roam (needs deploy_rogue)
  bool use_vpn = false;
  bool enable_detection = false; ///< §2.3 sequence-control monitor
  bool do_download = true;
  sim::Time settle_time = 3 * sim::kSecond;
  sim::Time capture_window = 15 * sim::kSecond;
  sim::Time vpn_window = 10 * sim::kSecond;
  sim::Time download_window = 60 * sim::kSecond;
  sim::Time deauth_period = 100 * sim::kMillisecond;

  // Chaos (fault injection) episode knobs.
  /// Generate a seed-derived faults::Plan over the episode windows and
  /// inject it while the episode runs.
  bool inject_faults = false;
  /// Plan shape; horizon == 0 means "derive [settle, episode end) from the
  /// phase windows above".
  faults::PlanConfig faults;
  /// Self-healing VPN client (keepalive/DPD + reconnect with backoff).
  bool vpn_auto_reconnect = false;
  /// Tunnel gap policy: fail open (restore the raw default route — exposed
  /// but connected, measured by Metrics::clear_packets) vs fail closed.
  bool vpn_fail_open = true;
  /// Background victim heartbeat during chaos episodes (0 disables). A
  /// stalled download transmits nothing, so without ambient traffic the
  /// fail-open exposure meter would read zero by construction.
  sim::Time chatter_period = 500 * sim::kMillisecond;

  // WIDS tournament episode (attacker×detector pairing). When either
  // list is non-empty, run_episode() runs the tournament script instead
  // of the legacy phases: settle, a quiet baseline window (false-positive
  // territory), then the attacker's window. wids_attacker "none" is the
  // control row; "" keeps the legacy episode.
  std::vector<std::string> wids_detectors;
  std::string wids_attacker;
  sim::Time wids_baseline_window = 8 * sim::kSecond;
  sim::Time wids_attack_window = 20 * sim::kSecond;
};

/// Well-known addresses inside the world.
struct CorpAddresses {
  net::Ipv4Addr corp_gw_lan{10, 0, 0, 1};
  net::Ipv4Addr vpn_endpoint{10, 0, 0, 5};
  net::Ipv4Addr victim{10, 0, 0, 77};
  net::Ipv4Addr rogue_wlan{10, 0, 0, 200};
  net::Ipv4Addr rogue_eth{10, 0, 0, 201};
  net::Ipv4Addr corp_gw_wan{203, 0, 113, 1};
  net::Ipv4Addr web_server{203, 0, 113, 80};
  std::uint16_t vpn_port = 7000;
};

class CorpWorld final : public World, private faults::FaultTarget {
 public:
  explicit CorpWorld(CorpConfig config = {});

  // ---- World interface -----------------------------------------------------
  [[nodiscard]] std::string_view name() const override { return "corp"; }
  /// Re-root the simulation at `seed`. Must precede start().
  void configure(std::uint64_t seed) override;
  void run_episode() override;
  [[nodiscard]] Metrics collect_metrics() const override;
  [[nodiscard]] sim::Simulator& simulator() override { return sim_; }

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] phy::Medium& medium() { return medium_; }
  [[nodiscard]] const CorpConfig& config() const { return config_; }
  [[nodiscard]] const CorpAddresses& addr() const { return addr_; }

  /// Bring up the wired network, legit AP, web site, VPN endpoint, victim.
  void start() override;

  void capture_frames(obs::PcapWriter& pcap) override {
    medium_.set_pcap(&pcap);
  }

  /// Figure 1: stand up the rogue gateway (cloned SSID/WEP/BSSID, proxy
  /// ARP bridge, DNAT + netsed + trojan mirror).
  attack::RogueGateway& deploy_rogue();
  [[nodiscard]] attack::RogueGateway* rogue() { return rogue_.get(); }

  /// §4: force the victim off the legitimate AP with forged deauths.
  attack::DeauthAttacker& start_deauth_forcing(sim::Time period = 100'000);

  /// Boilerplate shared by every "rogue captures the victim" driver:
  /// start(), settle, deploy the rogue (plus deauth forcing when the
  /// config asks for it), then run out the capture window.
  void run_capture_phase();

  /// §2.3: park a sequence-control monitor on the corporate channel.
  /// Created automatically by run_episode() when enable_detection is set.
  detect::SeqNumMonitor& enable_detection();
  [[nodiscard]] detect::SeqNumMonitor* detector() { return monitor_.get(); }

  /// Pluggable WIDS: attach a registry detector wired to this world's
  /// channel plan, AP inventory, monitor position and wired segment.
  bool attach_detector(std::string_view name) override;
  /// Pluggable attacker configured against the corporate network ("none"
  /// arms nothing — the tournament's control row).
  bool attach_attacker(std::string_view name) override;
  [[nodiscard]] const std::vector<std::unique_ptr<detect::Detector>>&
  wids_detectors() const {
    return detectors_;
  }
  [[nodiscard]] attack::Attacker* wids_attacker() { return attacker_.get(); }
  /// The environments the attach hooks hand out (exposed for tests).
  [[nodiscard]] detect::DetectorEnv detector_env();
  [[nodiscard]] attack::AttackerEnv attacker_env();
  /// Tournament script: settle + quiet baseline, then the attack window.
  void run_wids_episode();

  /// Figure 3: victim tunnels all traffic to the trusted endpoint.
  void connect_vpn(std::function<void(bool ok)> done);
  [[nodiscard]] vpn::ClientTunnel* victim_tunnel() { return victim_tunnel_.get(); }

  /// Chaos: generate the seed-derived fault plan over the episode windows
  /// and schedule it. Called by run_episode() when inject_faults is set.
  void install_fault_plan();
  [[nodiscard]] const faults::Injector* fault_injector() const {
    return injector_.get();
  }
  [[nodiscard]] const TunnelHealth& tunnel_health() const { return health_; }

  /// §4.1 workload: victim fetches the download page, follows the link,
  /// verifies the MD5SUM.
  void download(std::function<void(const apps::DownloadOutcome&)> done);

  /// Drive the simulation forward.
  void run_for(sim::Time duration) override {
    sim_.run_until(sim_.now() + duration);
  }

  // ---- Introspection -------------------------------------------------------
  [[nodiscard]] dot11::Station& victim_sta() { return *victim_sta_; }
  [[nodiscard]] net::Host& victim() { return *victim_; }
  [[nodiscard]] dot11::AccessPoint& legit_ap() { return *legit_ap_; }
  [[nodiscard]] net::Host& web_server() { return *web_; }
  [[nodiscard]] net::Host& corp_gw() { return *corp_gw_; }
  [[nodiscard]] net::Host& vpn_host() { return *vpn_host_; }
  [[nodiscard]] vpn::Endpoint& vpn_endpoint() { return *endpoint_; }
  [[nodiscard]] net::Switch& corp_lan() { return corp_lan_; }
  [[nodiscard]] net::Switch& internet() { return internet_; }

  [[nodiscard]] net::MacAddr legit_bssid() const;
  [[nodiscard]] net::MacAddr victim_mac() const;
  /// Is the victim currently associated with the rogue AP (vs the real one)?
  [[nodiscard]] bool victim_on_rogue() const;

  /// MD5 of the genuine release blob and of the attacker's trojan.
  [[nodiscard]] const std::string& release_md5() const { return release_->md5_hex; }
  [[nodiscard]] const std::string& trojan_md5() const { return trojan_->md5_hex; }

 private:
  void build_wired();
  void build_wireless();
  void start_chatter();

  // faults::FaultTarget — how chaos lands on this world's components.
  void fault_ap(bool down) override;
  void fault_endpoint(bool down) override;
  void fault_channel(double extra_loss) override;
  void fault_link(bool down) override;
  void fault_deauth_storm(bool active) override;
  void fault_reorder(double probability) override;
  void fault_duplicate(double probability) override;
  void fault_jitter(double max_ms) override;

  CorpConfig config_;
  CorpAddresses addr_;
  sim::Simulator sim_;
  phy::Medium medium_;
  net::Switch corp_lan_;
  net::Switch internet_;

  apps::ReleaseBlobPtr release_;
  apps::ReleaseBlobPtr trojan_;

  std::unique_ptr<net::Host> corp_gw_;
  std::unique_ptr<net::Host> web_;
  std::unique_ptr<apps::HttpServer> web_http_;
  std::unique_ptr<net::Host> vpn_host_;
  std::unique_ptr<vpn::Endpoint> endpoint_;

  std::unique_ptr<dot11::AccessPoint> legit_ap_;
  std::unique_ptr<net::ApBridge> ap_bridge_;

  std::unique_ptr<dot11::Station> victim_sta_;
  std::unique_ptr<net::Host> victim_;
  std::unique_ptr<vpn::ClientTunnel> victim_tunnel_;

  std::unique_ptr<attack::RogueGateway> rogue_;
  std::unique_ptr<attack::DeauthAttacker> deauth_;
  std::unique_ptr<detect::SeqNumMonitor> monitor_;
  std::vector<std::unique_ptr<detect::Detector>> detectors_;
  std::unique_ptr<attack::Attacker> attacker_;
  std::unique_ptr<faults::Injector> injector_;
  std::unique_ptr<attack::DeauthAttacker> chaos_deauth_;
  std::shared_ptr<net::UdpSocket> chatter_sock_;
  TunnelHealth health_;

  bool started_ = false;

  // Episode observations, filled in as the scenario unfolds and read by
  // collect_metrics(). "-1 cast to Time" is avoided by optionals.
  std::optional<sim::Time> rogue_deploy_time_;
  std::optional<sim::Time> wids_attack_start_;
  bool wids_enabled_ = false;
  std::optional<sim::Time> capture_time_;
  std::optional<sim::Time> vpn_up_time_;
  bool vpn_attempted_ = false;
  bool vpn_ok_ = false;
  std::optional<apps::DownloadOutcome> outcome_;
};

}  // namespace rogue::scenario
