#include "scenario/hotspot.hpp"

#include <stdexcept>

#include "crypto/aead.hpp"
#include "util/assert.hpp"

namespace rogue::scenario {

namespace {
const net::MacAddr kHotspotBssid = net::MacAddr::from_id(0xCAFE000001);
const net::MacAddr kClientMac = net::MacAddr::from_id(0xCAFE000100);
const net::MacAddr kGwWanMac = net::MacAddr::from_id(0xCAFE000002);
const net::MacAddr kWebMac = net::MacAddr::from_id(0xCAFE000003);
const net::MacAddr kHomeMac = net::MacAddr::from_id(0xCAFE000004);
constexpr std::uint16_t kNetsedPort = 10101;
}  // namespace

HotspotWorld::HotspotWorld(HotspotConfig config)
    : config_(std::move(config)),
      sim_(config_.seed),
      medium_(sim_, config_.medium),
      internet_(sim_),
      release_(apps::make_release_blob(0xFEED, config_.release_size)),
      trojan_(apps::make_release_blob(0xBAD, config_.release_size)) {}

void HotspotWorld::configure(std::uint64_t seed) {
  ROGUE_ASSERT_MSG(!started_, "configure() must precede start()");
  config_.seed = seed;
  sim_.reseed(seed);
}

void HotspotWorld::start() {
  if (started_) return;
  started_ = true;

  // Open hotspot AP (public hotspots of the era ran no WEP).
  dot11::ApConfig ap_cfg;
  ap_cfg.ssid = "HOTSPOT";
  ap_cfg.bssid = kHotspotBssid;
  ap_cfg.channel = 6;
  ap_ = std::make_unique<dot11::AccessPoint>(sim_, medium_, ap_cfg);
  ap_->radio().set_position({5.0, 0.0});

  // Hotspot gateway: NAT between the hotspot LAN and the internet.
  gw_ = std::make_unique<net::Host>(sim_, "hotspot-gw");
  gw_->attach(std::make_unique<net::ApIf>("wlan0", *ap_));
  gw_->add_wired("wan0", internet_, kGwWanMac);
  gw_->configure("wlan0", addr_.hotspot_lan, 24);
  gw_->configure("wan0", addr_.hotspot_wan, 24);
  gw_->set_ip_forward(true);
  {
    net::Rule masquerade;
    masquerade.match.src = net::Ipv4Addr(192, 168, 1, 0);
    masquerade.match.src_mask = net::netmask(24);
    masquerade.match.out_iface = "wan0";
    masquerade.target = net::RuleTarget::kSnat;
    masquerade.nat_ip = addr_.hotspot_wan;
    gw_->netfilter().append(net::Hook::kPostrouting, masquerade);
  }

  if (config_.hostile) {
    // The owner-in-the-middle: same DNAT + netsed + trojan mirror as the
    // corporate rogue, but running on legitimate infrastructure.
    net::Rule dnat;
    dnat.match.protocol = net::kProtoTcp;
    dnat.match.dst = addr_.web_server;
    dnat.match.dport = 80;
    dnat.match.in_iface = "wlan0";
    dnat.target = net::RuleTarget::kDnat;
    dnat.nat_ip = addr_.hotspot_lan;
    dnat.nat_port = kNetsedPort;
    gw_->netfilter().append(net::Hook::kPrerouting, dnat);

    const std::string fake_link =
        "http://" + addr_.hotspot_lan.to_string() + "/file.tgz";
    std::vector<apps::NetsedRule> rules;
    rules.push_back(
        apps::NetsedRule::from_strings("href=file.tgz", "href=" + fake_link));
    rules.push_back(apps::NetsedRule::from_strings(release_md5(), trojan_md5()));
    netsed_ = std::make_unique<apps::Netsed>(*gw_, kNetsedPort, addr_.web_server,
                                             80, std::move(rules));
    trojan_server_ = std::make_unique<apps::HttpServer>(*gw_, 80);
    apps::install_trojan_site(*trojan_server_, trojan_);
  }

  // The public web server.
  web_ = std::make_unique<net::Host>(sim_, "web-server");
  web_->add_wired("eth0", internet_, kWebMac);
  web_->configure("eth0", addr_.web_server, 24);
  web_http_ = std::make_unique<apps::HttpServer>(*web_, 80);
  apps::install_download_site(*web_http_, release_);

  // The client's *home* VPN endpoint, reachable across the internet
  // (§5.2: provided by "the client's home corporation, home ISP, or
  // perhaps a trusted third party").
  home_ = std::make_unique<net::Host>(sim_, "home-vpn");
  home_->add_wired("eth0", internet_, kHomeMac);
  home_->configure("eth0", addr_.home_vpn, 24);
  vpn::EndpointConfig ep;
  ep.psk = config_.vpn_psk;
  ep.port = addr_.vpn_port;
  endpoint_ = std::make_unique<vpn::Endpoint>(*home_, ep);
  endpoint_->start();

  // The roaming client.
  dot11::StationConfig sta;
  sta.mac = kClientMac;
  sta.target_ssid = "HOTSPOT";
  sta.scan_channels = {6};
  client_sta_ = std::make_unique<dot11::Station>(sim_, medium_, sta);
  client_sta_->radio().set_position({0.0, 0.0});
  client_sta_->set_event_handler(
      [this](std::string_view event, const dot11::BssInfo&) {
        if (event == "assoc" && !join_time_) join_time_ = sim_.now();
      });

  client_ = std::make_unique<net::Host>(sim_, "client");
  client_->attach(std::make_unique<net::StationIf>("wlan0", *client_sta_));
  client_->configure("wlan0", addr_.client, 24);
  client_->routes().add_default(addr_.hotspot_lan, "wlan0");

  ap_->start();
  client_sta_->start();
}

void HotspotWorld::install_fault_plan() {
  ROGUE_ASSERT_MSG(started_, "start() the world before installing faults");
  if (injector_) return;
  faults::PlanConfig cfg = config_.faults;
  if (cfg.horizon == 0) {
    cfg.start = sim_.now() + config_.settle_time;
    sim::Time horizon = cfg.start;
    if (config_.use_vpn) horizon += config_.vpn_window;
    if (config_.do_download) horizon += config_.download_window;
    if (horizon <= cfg.start) horizon = cfg.start + sim::kSecond;
    cfg.horizon = horizon;
  }
  util::Prng rng = sim_.derive_rng("faults.plan");
  injector_ = std::make_unique<faults::Injector>(
      sim_, static_cast<faults::FaultTarget&>(*this));
  injector_->install(faults::Plan::generate(rng, cfg));

  // Ambient client heartbeat (see CorpWorld::install_fault_plan): gives
  // the fail-open exposure meter traffic to count during tunnel gaps.
  start_chatter();
}

void HotspotWorld::start_chatter() {
  if (config_.chatter_period == 0 || chatter_sock_) return;
  chatter_sock_ = client_->udp_open(0);
  sim_.every(config_.chatter_period, [this] {
    static const util::Bytes kBeacon = {'h', 'b'};
    if (chatter_sock_) chatter_sock_->send_to(addr_.web_server, 9, kBeacon);
  });
}

detect::DetectorEnv HotspotWorld::detector_env() {
  detect::DetectorEnv env;
  env.sim = &sim_;
  env.medium = &medium_;
  env.channels = {6};
  // Near the AP: a hotspot operator audits from its own rack, which keeps
  // the RSSI baseline tight.
  env.position = {4.0, 2.0};
  detect::TrustedAp ap;
  ap.ssid = "HOTSPOT";
  ap.bssid = kHotspotBssid;
  ap.channel = 6;
  env.inventory = {ap};
  env.wired = &internet_;
  env.known_wired_macs = {kGwWanMac, kWebMac, kHomeMac};
  return env;
}

attack::AttackerEnv HotspotWorld::attacker_env() {
  attack::AttackerEnv env;
  env.sim = &sim_;
  env.medium = &medium_;
  env.ssid = "HOTSPOT";
  env.legit_bssid = kHotspotBssid;
  env.victim_mac = kClientMac;
  env.legit_channel = 6;
  env.rogue_channel = 6;
  env.position = {1.0, 0.0};  // lurking next to the client
  env.deauth_period = config_.deauth_period;
  env.rng = sim_.derive_rng("wids.attacker");
  // No rogue-gateway stack in this world: the hooks stay empty and the
  // "rogue-gateway" row degenerates to a no-op attacker.
  return env;
}

bool HotspotWorld::attach_detector(std::string_view name) {
  ROGUE_ASSERT_MSG(started_, "start() the world before attaching detectors");
  auto detector = detect::make_detector(name);
  if (!detector) return false;
  detector->attach(detector_env());
  wids_enabled_ = true;
  detectors_.push_back(std::move(detector));
  return true;
}

bool HotspotWorld::attach_attacker(std::string_view name) {
  ROGUE_ASSERT_MSG(started_, "start() the world before attaching attackers");
  ROGUE_ASSERT_MSG(!attacker_, "attacker already attached");
  wids_enabled_ = true;
  if (name == "none") return true;
  auto attacker = attack::make_attacker(name);
  if (!attacker) return false;
  attacker->configure(attacker_env());
  attacker_ = std::move(attacker);
  return true;
}

void HotspotWorld::run_wids_episode() {
  start();
  // Throw (not assert) so a bad roster name fails the replica, not the pool.
  for (const std::string& name : config_.wids_detectors) {
    if (!attach_detector(name)) {
      throw std::runtime_error("unknown wids detector: " + name);
    }
  }
  if (!config_.wids_attacker.empty() &&
      !attach_attacker(config_.wids_attacker)) {
    throw std::runtime_error("unknown wids attacker: " + config_.wids_attacker);
  }
  start_chatter();
  run_for(config_.settle_time + config_.wids_baseline_window);
  if (attacker_) {
    wids_attack_start_ = sim_.now();
    attacker_->start();
  }
  run_for(config_.wids_attack_window);
  if (attacker_) attacker_->stop();
}

void HotspotWorld::fault_ap(bool down) {
  if (down) ap_->stop();
  else ap_->start();
}

void HotspotWorld::fault_endpoint(bool down) {
  if (down) endpoint_->stop();
  else endpoint_->start();
}

void HotspotWorld::fault_channel(double extra_loss) {
  medium_.set_loss_override(extra_loss);
}

void HotspotWorld::fault_link(bool down) {
  if (net::NetIf* eth = home_->interface("eth0")) eth->set_admin_up(!down);
}

void HotspotWorld::fault_deauth_storm(bool active) {
  if (active) {
    if (!chaos_deauth_) {
      chaos_deauth_ = std::make_unique<attack::DeauthAttacker>(
          sim_, medium_, /*channel=*/6, kHotspotBssid, kClientMac);
      chaos_deauth_->radio().set_position({2.0, 1.0});
    }
    chaos_deauth_->start(config_.deauth_period);
  } else if (chaos_deauth_) {
    chaos_deauth_->stop();
  }
}

void HotspotWorld::connect_vpn(std::function<void(bool)> done) {
  ROGUE_ASSERT_MSG(!tunnel_, "VPN already connected");
  vpn::ClientConfig cfg;
  cfg.psk = config_.vpn_psk;
  cfg.endpoint_ip = addr_.home_vpn;
  cfg.endpoint_port = addr_.vpn_port;
  cfg.transport = config_.vpn_transport;
  cfg.auto_reconnect = config_.vpn_auto_reconnect;
  cfg.fail_open = config_.vpn_fail_open;
  tunnel_ = std::make_unique<vpn::ClientTunnel>(*client_, cfg);
  tunnel_->set_session_handler([this](bool up) {
    health_.on_session(sim_.now(), up);
    if (up) {
      vpn_ok_ = true;
      if (!vpn_up_time_) vpn_up_time_ = sim_.now();
    }
  });
  // Fail-open exposure meter (see CorpWorld::connect_vpn).
  client_->set_tap([this](std::string_view point, const net::Ipv4Packet& packet,
                          std::string_view ifname) {
    if (point != "tx" || ifname == "tun0") return;
    if (packet.dst == addr_.home_vpn) return;
    if (health_.gap_open()) ++health_.clear_packets;
  });
  tunnel_->start([this, done = std::move(done)](bool ok) {
    vpn_ok_ = ok;
    if (ok && !vpn_up_time_) vpn_up_time_ = sim_.now();
    if (done) done(ok);
  });
}

void HotspotWorld::download(std::function<void(const apps::DownloadOutcome&)> done) {
  apps::run_download(*client_, addr_.web_server, 80,
                     [this, done = std::move(done)](const apps::DownloadOutcome& o) {
                       outcome_ = o;
                       if (done) done(o);
                     });
}

void HotspotWorld::run_episode() {
  if (!config_.wids_detectors.empty() || !config_.wids_attacker.empty()) {
    run_wids_episode();
    return;
  }
  start();
  if (config_.inject_faults) install_fault_plan();
  run_for(config_.settle_time);
  if (config_.use_vpn) {
    connect_vpn([](bool) {});
    run_for(config_.vpn_window);
  }
  if (config_.do_download) {
    download([](const apps::DownloadOutcome&) {});
    run_for(config_.download_window);
  }
}

Metrics HotspotWorld::collect_metrics() const {
  constexpr double kUsPerSecond = 1e6;
  constexpr double kVpnRecordFraming = 8.0 + crypto::kAeadTagLen;

  Metrics m;
  m.sim_time_s = static_cast<double>(sim_.now()) / kUsPerSecond;
  m.events_fired = sim_.events_fired();
  m.trace_records = sim_.tracer().notes();
  m.trace_warnings = sim_.tracer().warnings();
  m.stats = sim_.stats_snapshot();

  // "Captured" here means attached to attacker-run infrastructure: in the
  // hostile variant the hotspot itself is the adversary, so joining it at
  // all is the capture event.
  if (config_.hostile && join_time_) {
    m.victim_captured = true;
    m.time_to_capture_s = static_cast<double>(*join_time_) / kUsPerSecond;
  }

  if (outcome_) {
    m.download_completed = outcome_->file_fetched;
    m.md5_verified = outcome_->md5_verified;
    m.trojaned = outcome_->file_fetched && outcome_->fetched_md5_hex == trojan_md5();
    m.victim_deceived = m.trojaned && m.md5_verified;
  }

  if (injector_) m.faults_injected = injector_->injected();

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
          ++m.wids_false_alerts;
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

  if (tunnel_) {
    m.vpn_established = vpn_ok_ && tunnel_->established();
    m.vpn_tunnel_losses = health_.losses();
    m.vpn_reconnects = health_.reconnects();
    m.vpn_downtime_s = health_.downtime_s(sim_.now());
    if (health_.recover().count() > 0) {
      m.vpn_recover_p50_s = health_.recover().percentile(0.50);
      m.vpn_recover_p95_s = health_.recover().percentile(0.95);
    }
    m.clear_packets = health_.clear_packets;
    const vpn::ClientCounters& c = tunnel_->counters();
    m.vpn_records_out = c.records_out;
    m.vpn_records_in = c.records_in;
    if (vpn_up_time_ && sim_.now() > *vpn_up_time_) {
      const double active_s =
          static_cast<double>(sim_.now() - *vpn_up_time_) / kUsPerSecond;
      m.vpn_goodput_kbps =
          static_cast<double>(c.bytes_decrypted) * 8.0 / 1000.0 / active_s;
    }
    const double payload = static_cast<double>(c.bytes_sealed + c.bytes_decrypted);
    if (payload > 0.0) {
      const double wire =
          payload + kVpnRecordFraming *
                        static_cast<double>(c.records_out + c.records_in);
      m.vpn_overhead_ratio = wire / payload;
    }
  }
  return m;
}

}  // namespace rogue::scenario
