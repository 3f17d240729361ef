#include "scenario/corp_world.hpp"

#include <stdexcept>

#include "crypto/aead.hpp"
#include "util/assert.hpp"

namespace rogue::scenario {

namespace {
// Per-client 802.1X-style credentials (kEap mode). The rogue, as the
// "staff" insider, knows only its own.
const char* kVictimEapKey = "victim-personal-credential";
const char* kStaffEapKey = "staff-personal-credential";

// Stable MAC plan (locally administered).
const net::MacAddr kLegitBssid = net::MacAddr::from_id(0xAABBCCDD01);
const net::MacAddr kVictimMac = net::MacAddr::from_id(0xAABBCCDD77);
const net::MacAddr kStaffMac = net::MacAddr::from_id(0xAABBCCDD42);  // offline
const net::MacAddr kRogueBssidDistinct = net::MacAddr::from_id(0xEE66660001);
const net::MacAddr kCorpGwLanMac = net::MacAddr::from_id(0x10);
const net::MacAddr kCorpGwWanMac = net::MacAddr::from_id(0x11);
const net::MacAddr kWebMac = net::MacAddr::from_id(0x12);
const net::MacAddr kVpnMac = net::MacAddr::from_id(0x13);
}  // namespace

CorpWorld::CorpWorld(CorpConfig config)
    : config_(std::move(config)),
      sim_(config_.seed),
      medium_(sim_, config_.medium),
      corp_lan_(sim_),
      internet_(sim_),
      release_(apps::make_release_blob(/*seed=*/0xFEED, config_.release_size)),
      trojan_(apps::make_release_blob(/*seed=*/0xBAD, config_.release_size)) {}

net::MacAddr CorpWorld::legit_bssid() const { return kLegitBssid; }
net::MacAddr CorpWorld::victim_mac() const { return kVictimMac; }

void CorpWorld::configure(std::uint64_t seed) {
  ROGUE_ASSERT_MSG(!started_, "configure() must precede start()");
  config_.seed = seed;
  sim_.reseed(seed);
}

void CorpWorld::start() {
  if (started_) return;
  started_ = true;
  build_wired();
  build_wireless();
}

void CorpWorld::run_capture_phase() {
  start();
  run_for(config_.settle_time);
  deploy_rogue();
  if (config_.deauth_forcing) start_deauth_forcing(config_.deauth_period);
  run_for(config_.capture_window);
}

detect::SeqNumMonitor& CorpWorld::enable_detection() {
  ROGUE_ASSERT_MSG(!monitor_, "detection already enabled");
  detect::SeqMonitorConfig cfg;
  cfg.channel = config_.legit_channel;
  monitor_ = std::make_unique<detect::SeqNumMonitor>(sim_, medium_, cfg);
  // Park the monitor between the victim and the legitimate AP, off-axis —
  // close enough to hear both the AP's real counter and the forgeries.
  monitor_->radio().set_position({config_.victim_to_legit_m / 2.0, 4.0});
  return *monitor_;
}

void CorpWorld::run_episode() {
  if (!config_.wids_detectors.empty() || !config_.wids_attacker.empty()) {
    run_wids_episode();
    return;
  }
  start();
  if (config_.enable_detection && !monitor_) enable_detection();
  if (config_.inject_faults) install_fault_plan();
  run_for(config_.settle_time);
  if (config_.deploy_rogue) {
    deploy_rogue();
    if (config_.deauth_forcing) start_deauth_forcing(config_.deauth_period);
    run_for(config_.capture_window);
  }
  if (config_.use_vpn) {
    connect_vpn([](bool) {});
    run_for(config_.vpn_window);
  }
  if (config_.do_download) {
    download([](const apps::DownloadOutcome&) {});
    run_for(config_.download_window);
  }
}

void CorpWorld::build_wired() {
  // Corp gateway: routes between the corp LAN and the "internet".
  corp_gw_ = std::make_unique<net::Host>(sim_, "corp-gw", config_.tcp);
  corp_gw_->add_wired("lan0", corp_lan_, kCorpGwLanMac);
  corp_gw_->add_wired("wan0", internet_, kCorpGwWanMac);
  corp_gw_->configure("lan0", addr_.corp_gw_lan, 24);
  corp_gw_->configure("wan0", addr_.corp_gw_wan, 24);
  corp_gw_->set_ip_forward(true);

  // Web server hosting the download site.
  web_ = std::make_unique<net::Host>(sim_, "web-server", config_.tcp);
  web_->add_wired("eth0", internet_, kWebMac);
  web_->configure("eth0", addr_.web_server, 24);
  web_->routes().add_default(addr_.corp_gw_wan, "eth0");
  web_http_ = std::make_unique<apps::HttpServer>(*web_, 80);
  apps::install_download_site(*web_http_, release_);

  // VPN endpoint on the trusted wired LAN (§5.2 requirement 3).
  vpn_host_ = std::make_unique<net::Host>(sim_, "vpn-endpoint", config_.tcp);
  vpn_host_->add_wired("eth0", corp_lan_, kVpnMac);
  vpn_host_->configure("eth0", addr_.vpn_endpoint, 24);
  vpn_host_->routes().add_default(addr_.corp_gw_lan, "eth0");
  vpn::EndpointConfig ep_cfg;
  ep_cfg.psk = config_.vpn_psk;
  ep_cfg.port = addr_.vpn_port;
  ep_cfg.replay_window = config_.vpn_replay_window;
  endpoint_ = std::make_unique<vpn::Endpoint>(*vpn_host_, ep_cfg);
  endpoint_->start();
}

namespace {
dot11::SecurityMode resolve_security(const CorpConfig& cfg) {
  if (cfg.security) return *cfg.security;
  return cfg.wep ? dot11::SecurityMode::kWep : dot11::SecurityMode::kOpen;
}
}  // namespace

void CorpWorld::build_wireless() {
  const dot11::SecurityMode security = resolve_security(config_);
  // Legitimate AP, bridged onto the corp LAN at L2.
  dot11::ApConfig ap_cfg;
  ap_cfg.ssid = "CORP";
  ap_cfg.bssid = kLegitBssid;
  ap_cfg.channel = config_.legit_channel;
  ap_cfg.security = security;
  ap_cfg.wep_key =
      security == dot11::SecurityMode::kWep ? config_.wep_key : util::Bytes{};
  ap_cfg.wpa_psk =
      security == dot11::SecurityMode::kWpaPsk ? config_.wpa_psk : util::Bytes{};
  if (security == dot11::SecurityMode::kEap) {
    ap_cfg.eap_client_keys = {{kVictimMac, util::to_bytes(kVictimEapKey)},
                              {kStaffMac, util::to_bytes(kStaffEapKey)}};
  }
  ap_cfg.iv_policy = config_.iv_policy;
  ap_cfg.auth_algorithm = config_.auth_algorithm;
  ap_cfg.mac_filtering = config_.mac_filtering;
  ap_cfg.allowed_macs = {kVictimMac, kStaffMac};
  legit_ap_ = std::make_unique<dot11::AccessPoint>(sim_, medium_, ap_cfg);
  legit_ap_->radio().set_position({config_.victim_to_legit_m, 0.0});
  ap_bridge_ = std::make_unique<net::ApBridge>(*legit_ap_, corp_lan_, "legit-ap-uplink");
  legit_ap_->start();

  // Victim station + host.
  dot11::StationConfig sta_cfg;
  sta_cfg.mac = kVictimMac;
  sta_cfg.target_ssid = "CORP";
  sta_cfg.security = security;
  sta_cfg.wep_key =
      security == dot11::SecurityMode::kWep ? config_.wep_key : util::Bytes{};
  sta_cfg.wpa_psk = security == dot11::SecurityMode::kWpaPsk ? config_.wpa_psk
                    : security == dot11::SecurityMode::kEap
                        ? util::to_bytes(kVictimEapKey)
                        : util::Bytes{};
  sta_cfg.iv_policy = config_.iv_policy;
  sta_cfg.auth_algorithm = config_.auth_algorithm;
  sta_cfg.join_policy = config_.victim_join_policy;
  sta_cfg.scan_channels = {config_.legit_channel, config_.rogue_channel};
  victim_sta_ = std::make_unique<dot11::Station>(sim_, medium_, sta_cfg);
  victim_sta_->radio().set_position({0.0, 0.0});

  victim_ = std::make_unique<net::Host>(sim_, "victim", config_.tcp);
  victim_->attach(std::make_unique<net::StationIf>("wlan0", *victim_sta_));
  victim_->configure("wlan0", addr_.victim, 24);
  victim_->routes().add_default(addr_.corp_gw_lan, "wlan0");

  // Roaming hygiene: flush neighbour state when the association changes
  // (models the reachability probing a real stack does after a move).
  // Also the capture observer: the first association that lands on the
  // rogue is the paper's "victim captured" moment.
  victim_sta_->set_event_handler(
      [this](std::string_view event, const dot11::BssInfo&) {
        if (event != "assoc") return;
        victim_->arp("wlan0").flush();
        if (!capture_time_ && victim_on_rogue()) capture_time_ = sim_.now();
      });

  victim_sta_->start();
}

attack::RogueGateway& CorpWorld::deploy_rogue() {
  ROGUE_ASSERT_MSG(started_, "start() the world before deploying the rogue");
  ROGUE_ASSERT_MSG(!rogue_, "rogue already deployed");

  const dot11::SecurityMode security = resolve_security(config_);
  attack::RogueGatewayConfig cfg;
  cfg.ssid = "CORP";
  cfg.security = security;
  cfg.use_wep = security == dot11::SecurityMode::kWep;
  cfg.wep_key =
      security == dot11::SecurityMode::kWep ? config_.wep_key : util::Bytes{};
  cfg.wpa_psk = security == dot11::SecurityMode::kWpaPsk ? config_.wpa_psk
                : security == dot11::SecurityMode::kEap
                    ? util::to_bytes(kStaffEapKey)  // its own credential only
                    : util::Bytes{};
  cfg.auth_algorithm = config_.auth_algorithm;
  // "created by a valid user, using the authentication information he was
  // given" / or an outsider with a sniffed MAC: either way the uplink MAC
  // passes the ACL.
  cfg.client_mac = kStaffMac;
  cfg.rogue_bssid = config_.rogue_clones_bssid ? kLegitBssid : kRogueBssidDistinct;
  cfg.rogue_channel = config_.rogue_channel;
  cfg.uplink_scan_channels = {config_.legit_channel};
  cfg.wlan_ip = addr_.rogue_wlan;
  cfg.eth_ip = addr_.rogue_eth;
  cfg.upstream_gateway = addr_.corp_gw_lan;
  cfg.target_ip = addr_.web_server;
  cfg.target_port = 80;
  cfg.netsed_mode = config_.netsed_mode;
  cfg.trojan_blob = trojan_;

  // netsed tcp 10101 Target-IP 80 s/href=file.tgz/href=http:...%2f...
  //                               s/REALMD5SUM/FAKEMD5SUM
  cfg.tcp = config_.tcp;
  const std::string fake_link =
      "http://" + addr_.rogue_wlan.to_string() + "/file.tgz";
  if (config_.rewrite_link) {
    cfg.netsed_rules.push_back(
        apps::NetsedRule::from_strings("href=file.tgz", "href=" + fake_link));
  }
  if (config_.rewrite_md5) {
    cfg.netsed_rules.push_back(
        apps::NetsedRule::from_strings(release_md5(), trojan_md5()));
  }

  rogue_ = std::make_unique<attack::RogueGateway>(sim_, medium_, cfg);
  rogue_->uplink().radio().set_position({config_.victim_to_rogue_m, 2.0});
  rogue_->ap().radio().set_position({config_.victim_to_rogue_m, 0.0});
  rogue_->start();
  rogue_deploy_time_ = sim_.now();
  return *rogue_;
}

void CorpWorld::install_fault_plan() {
  ROGUE_ASSERT_MSG(started_, "start() the world before installing faults");
  if (injector_) return;
  faults::PlanConfig cfg = config_.faults;
  if (cfg.horizon == 0) {
    // Default window: the episode body after settle, so faults land while
    // the phases the metrics care about are running.
    cfg.start = sim_.now() + config_.settle_time;
    sim::Time horizon = cfg.start;
    if (config_.deploy_rogue) horizon += config_.capture_window;
    if (config_.use_vpn) horizon += config_.vpn_window;
    if (config_.do_download) horizon += config_.download_window;
    if (horizon <= cfg.start) horizon = cfg.start + sim::kSecond;
    cfg.horizon = horizon;
  }
  util::Prng rng = sim_.derive_rng("faults.plan");
  injector_ = std::make_unique<faults::Injector>(
      sim_, static_cast<faults::FaultTarget&>(*this));
  injector_->install(faults::Plan::generate(rng, cfg));

  // Ambient victim traffic for the episode: a tiny periodic heartbeat that
  // rides the tunnel while it is up and leaks onto the radio during a
  // fail-open gap — the packets Metrics::clear_packets counts.
  start_chatter();
}

void CorpWorld::start_chatter() {
  if (config_.chatter_period == 0 || chatter_sock_) return;
  chatter_sock_ = victim_->udp_open(0);
  sim_.every(config_.chatter_period, [this] {
    static const util::Bytes kBeacon = {'h', 'b'};
    if (chatter_sock_) chatter_sock_->send_to(addr_.web_server, 9, kBeacon);
  });
}

void CorpWorld::fault_ap(bool down) {
  if (down) legit_ap_->stop();
  else legit_ap_->start();
}

void CorpWorld::fault_endpoint(bool down) {
  if (down) endpoint_->stop();
  else endpoint_->start();
}

void CorpWorld::fault_channel(double extra_loss) {
  medium_.set_loss_override(extra_loss);
}

void CorpWorld::fault_link(bool down) {
  if (net::NetIf* eth = vpn_host_->interface("eth0")) eth->set_admin_up(!down);
}

void CorpWorld::fault_reorder(double probability) {
  medium_.set_reorder(probability);
}

void CorpWorld::fault_duplicate(double probability) {
  medium_.set_duplicate(probability);
}

void CorpWorld::fault_jitter(double max_ms) {
  medium_.set_jitter_ms(max_ms);
}

void CorpWorld::fault_deauth_storm(bool active) {
  if (active) {
    if (!chaos_deauth_) {
      chaos_deauth_ = std::make_unique<attack::DeauthAttacker>(
          sim_, medium_, config_.legit_channel, kLegitBssid, kVictimMac);
      chaos_deauth_->radio().set_position({config_.victim_to_rogue_m, 1.0});
    }
    chaos_deauth_->start(config_.deauth_period);
  } else if (chaos_deauth_) {
    chaos_deauth_->stop();
  }
}

attack::DeauthAttacker& CorpWorld::start_deauth_forcing(sim::Time period) {
  ROGUE_ASSERT_MSG(!deauth_, "deauth forcing already running");
  deauth_ = std::make_unique<attack::DeauthAttacker>(
      sim_, medium_, config_.legit_channel, kLegitBssid, kVictimMac);
  deauth_->radio().set_position({config_.victim_to_rogue_m, 0.0});
  deauth_->start(period);
  return *deauth_;
}

detect::DetectorEnv CorpWorld::detector_env() {
  const dot11::SecurityMode security = resolve_security(config_);
  detect::DetectorEnv env;
  env.sim = &sim_;
  env.medium = &medium_;
  // The World's channel plan — the corporate channel plus wherever a
  // rogue could park — not a hard-coded channel 1.
  env.channels = {config_.legit_channel};
  if (config_.rogue_channel != config_.legit_channel) {
    env.channels.push_back(config_.rogue_channel);
  }
  // Between the victim and the legitimate AP, off-axis: hears both the
  // AP's real counter and any forgeries.
  env.position = {config_.victim_to_legit_m / 2.0, 4.0};
  detect::TrustedAp ap;
  ap.ssid = "CORP";
  ap.bssid = kLegitBssid;
  ap.channel = config_.legit_channel;
  ap.beacon_interval_tu = 100;
  ap.capability = dot11::kCapEss;
  if (security != dot11::SecurityMode::kOpen) ap.capability |= dot11::kCapPrivacy;
  env.inventory = {ap};
  env.wired = &corp_lan_;
  env.known_wired_macs = {kCorpGwLanMac, kVpnMac, kVictimMac, kStaffMac};
  return env;
}

attack::AttackerEnv CorpWorld::attacker_env() {
  const dot11::SecurityMode security = resolve_security(config_);
  attack::AttackerEnv env;
  env.sim = &sim_;
  env.medium = &medium_;
  env.ssid = "CORP";
  env.legit_bssid = kLegitBssid;
  env.victim_mac = kVictimMac;
  env.legit_channel = config_.legit_channel;
  env.rogue_channel = config_.rogue_channel;
  env.beacon_interval_tu = 100;
  env.capability = dot11::kCapEss;
  if (security != dot11::SecurityMode::kOpen) env.capability |= dot11::kCapPrivacy;
  env.position = {config_.victim_to_rogue_m, 0.0};
  env.deauth_period = config_.deauth_period;
  // Named stream off the replica's root seed: every behavioural jitter
  // the attacker draws is a pure function of (variant, seed).
  env.rng = sim_.derive_rng("wids.attacker");
  env.deploy_rogue = [this] {
    if (!rogue_) deploy_rogue();
  };
  env.stop_rogue = [this] {
    if (rogue_) rogue_->stop();
  };
  return env;
}

bool CorpWorld::attach_detector(std::string_view name) {
  ROGUE_ASSERT_MSG(started_, "start() the world before attaching detectors");
  auto detector = detect::make_detector(name);
  if (!detector) return false;
  detector->attach(detector_env());
  wids_enabled_ = true;
  detectors_.push_back(std::move(detector));
  return true;
}

bool CorpWorld::attach_attacker(std::string_view name) {
  ROGUE_ASSERT_MSG(started_, "start() the world before attaching attackers");
  ROGUE_ASSERT_MSG(!attacker_, "attacker already attached");
  wids_enabled_ = true;
  if (name == "none") return true;  // control row: nothing ever transmits
  auto attacker = attack::make_attacker(name);
  if (!attacker) return false;
  attacker->configure(attacker_env());
  attacker_ = std::move(attacker);
  return true;
}

void CorpWorld::run_wids_episode() {
  start();
  // Throw (not assert) on unknown registry names: a sweep replica with a
  // bad roster entry should land in the report's failures array, not
  // abort the whole worker pool.
  for (const std::string& name : config_.wids_detectors) {
    if (!attach_detector(name)) {
      throw std::runtime_error("unknown wids detector: " + name);
    }
  }
  if (!config_.wids_attacker.empty() &&
      !attach_attacker(config_.wids_attacker)) {
    throw std::runtime_error("unknown wids attacker: " + config_.wids_attacker);
  }
  // Ambient victim traffic: keeps the AP's sequence counter moving so
  // mimicry has something to shadow, and gives the episode data frames.
  start_chatter();
  run_for(config_.settle_time + config_.wids_baseline_window);
  if (attacker_) {
    wids_attack_start_ = sim_.now();
    attacker_->start();
  }
  run_for(config_.wids_attack_window);
  if (attacker_) attacker_->stop();
}

void CorpWorld::connect_vpn(std::function<void(bool)> done) {
  ROGUE_ASSERT_MSG(!victim_tunnel_, "VPN already connected");
  vpn::ClientConfig cfg;
  cfg.psk = config_.vpn_psk;
  cfg.endpoint_ip = addr_.vpn_endpoint;
  cfg.endpoint_port = addr_.vpn_port;
  cfg.transport = config_.vpn_transport;
  cfg.auto_reconnect = config_.vpn_auto_reconnect;
  cfg.fail_open = config_.vpn_fail_open;
  cfg.replay_window = config_.vpn_replay_window;
  cfg.rekey_after_records = config_.vpn_rekey_records;
  cfg.rekey_after_time = config_.vpn_rekey_interval;
  victim_tunnel_ = std::make_unique<vpn::ClientTunnel>(*victim_, cfg);
  victim_tunnel_->set_session_handler([this](bool up) {
    health_.on_session(sim_.now(), up);
    if (up) {
      vpn_ok_ = true;
      if (!vpn_up_time_) vpn_up_time_ = sim_.now();
    }
  });
  // Fail-open exposure meter: victim packets that leave on a physical
  // interface (not tun0) toward anything but the endpoint itself, while an
  // established tunnel is torn down, travelled in the clear.
  victim_->set_tap([this](std::string_view point, const net::Ipv4Packet& packet,
                          std::string_view ifname) {
    if (point != "tx" || ifname == "tun0") return;
    if (packet.dst == addr_.vpn_endpoint) return;
    if (health_.gap_open()) ++health_.clear_packets;
  });
  vpn_attempted_ = true;
  victim_tunnel_->start([this, done = std::move(done)](bool ok) {
    vpn_ok_ = ok;
    if (ok && !vpn_up_time_) vpn_up_time_ = sim_.now();
    if (done) done(ok);
  });
}

void CorpWorld::download(std::function<void(const apps::DownloadOutcome&)> done) {
  apps::run_download(*victim_, addr_.web_server, 80,
                     [this, done = std::move(done)](const apps::DownloadOutcome& o) {
                       outcome_ = o;
                       if (done) done(o);
                     });
}

bool CorpWorld::victim_on_rogue() const {
  if (!victim_sta_->associated()) return false;
  if (rogue_ == nullptr) return false;
  // With a cloned BSSID the channel is the distinguishing feature.
  return victim_sta_->bss().channel == rogue_->config().rogue_channel;
}

namespace {
constexpr double kUsPerSecond = 1e6;
/// Wire framing added to each VPN data record: 8-byte sequence number plus
/// the AEAD tag (the inner IP bytes themselves are what the counters hold).
constexpr double kVpnRecordFraming = 8.0 + crypto::kAeadTagLen;
}  // namespace

Metrics CorpWorld::collect_metrics() const {
  Metrics m;
  m.sim_time_s = static_cast<double>(sim_.now()) / kUsPerSecond;
  m.events_fired = sim_.events_fired();
  m.trace_records = sim_.tracer().notes();
  m.trace_warnings = sim_.tracer().warnings();
  m.stats = sim_.stats_snapshot();

  m.victim_captured = capture_time_.has_value();
  if (capture_time_) {
    const sim::Time base =
        rogue_deploy_time_ ? *rogue_deploy_time_ : sim::Time{0};
    m.time_to_capture_s =
        static_cast<double>(*capture_time_ - base) / kUsPerSecond;
  }

  if (outcome_) {
    m.download_completed = outcome_->file_fetched;
    m.md5_verified = outcome_->md5_verified;
    m.trojaned = outcome_->file_fetched && outcome_->fetched_md5_hex == trojan_md5();
    m.victim_deceived = m.trojaned && m.md5_verified;
  }

  if (monitor_) {
    m.seq_anomalies = monitor_->alerts().size();
    m.rogue_detected = !monitor_->suspects().empty();
    if (rogue_deploy_time_) {
      for (const detect::Alert& alert : monitor_->alerts()) {
        if (alert.time < *rogue_deploy_time_) continue;
        m.detection_latency_s =
            static_cast<double>(alert.time - *rogue_deploy_time_) / kUsPerSecond;
        break;
      }
    }
  }

  if (wids_enabled_) {
    m.wids_enabled = true;
    if (wids_attack_start_) {
      m.wids_attack_start_s =
          static_cast<double>(*wids_attack_start_) / kUsPerSecond;
    }
    std::optional<sim::Time> first_true;
    for (const auto& detector : detectors_) {
      for (const detect::Alert& alert : detector->alerts()) {
        ++m.wids_alerts;
        const bool false_alert =
            !wids_attack_start_ || alert.time < *wids_attack_start_;
        if (false_alert) {
          ++m.wids_false_alerts;  // fired with no attack underway
        } else if (!first_true || alert.time < *first_true) {
          first_true = alert.time;
        }
        m.wids_alert_timeline.push_back(Metrics::WidsAlert{
            static_cast<double>(alert.time) / kUsPerSecond,
            std::string(detector->name()),
            std::string(detect::to_string(alert.kind)), false_alert});
      }
    }
    if (first_true) {
      m.wids_time_to_detect_s =
          static_cast<double>(*first_true - *wids_attack_start_) / kUsPerSecond;
      m.rogue_detected = true;
    }
  }

  if (injector_) m.faults_injected = injector_->injected();

  if (victim_tunnel_) {
    m.vpn_established = vpn_ok_ && victim_tunnel_->established();
    m.vpn_tunnel_losses = health_.losses();
    m.vpn_reconnects = health_.reconnects();
    m.vpn_downtime_s = health_.downtime_s(sim_.now());
    if (health_.recover().count() > 0) {
      m.vpn_recover_p50_s = health_.recover().percentile(0.50);
      m.vpn_recover_p95_s = health_.recover().percentile(0.95);
    }
    m.clear_packets = health_.clear_packets;
    const vpn::ClientCounters& c = victim_tunnel_->counters();
    m.vpn_records_out = c.records_out;
    m.vpn_records_in = c.records_in;
    if (vpn_up_time_ && sim_.now() > *vpn_up_time_) {
      const double active_s =
          static_cast<double>(sim_.now() - *vpn_up_time_) / kUsPerSecond;
      m.vpn_goodput_kbps =
          static_cast<double>(c.bytes_decrypted) * 8.0 / 1000.0 / active_s;
    }
    const double payload =
        static_cast<double>(c.bytes_sealed + c.bytes_decrypted);
    if (payload > 0.0) {
      const double wire =
          payload + kVpnRecordFraming *
                        static_cast<double>(c.records_out + c.records_in);
      m.vpn_overhead_ratio = wire / payload;
    }
    // Transport-resilience block (EXP-T1): only the datagram transport
    // exercises the anti-replay / rekey / roam machinery, and gating on it
    // keeps legacy TCP-variant reports byte-identical.
    if (config_.vpn_transport == vpn::Transport::kUdp) {
      const vpn::EndpointCounters& e = endpoint_->counters();
      m.transport_enabled = true;
      m.vpn_replay_drops = c.records_replayed + e.records_replayed;
      m.vpn_auth_fail_drops = c.records_auth_fail + e.records_auth_fail;
      m.vpn_stale_epoch_drops = c.records_stale_epoch + e.records_stale_epoch;
      m.vpn_rekeys = c.rekeys;
      m.vpn_roams = e.roams;
      m.vpn_sessions_reaped = e.sessions_reaped;
    }
  }
  return m;
}

}  // namespace rogue::scenario
