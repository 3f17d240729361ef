// Application-layer tests: HTTP codec + client/server over simulated TCP,
// netsed rewriting (both matching modes, including the paper's
// segment-boundary limitation), and the download-verify workload.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "apps/download.hpp"
#include "apps/http.hpp"
#include "apps/netsed.hpp"
#include "crypto/md5.hpp"
#include "net/host.hpp"
#include "net/link.hpp"

namespace rogue::apps {
namespace {

using net::Ipv4Addr;
using net::MacAddr;
using util::Bytes;
using util::ByteView;
using util::to_bytes;

// ---- HTTP codec ----------------------------------------------------------------

TEST(HttpCodec, RequestEncodeHasRequestLineAndBlankLine) {
  HttpRequest req;
  req.path = "/download.html";
  req.headers.emplace_back("Host", "10.0.0.1");
  const std::string s = util::to_string(req.encode());
  EXPECT_NE(s.find("GET /download.html HTTP/1.0\r\n"), std::string::npos);
  EXPECT_NE(s.find("Host: 10.0.0.1\r\n"), std::string::npos);
  EXPECT_NE(s.find("\r\n\r\n"), std::string::npos);
}

TEST(HttpCodec, ResponseAddsContentLength) {
  HttpResponse resp;
  resp.body = to_bytes("hello");
  const std::string s = util::to_string(resp.encode());
  EXPECT_NE(s.find("HTTP/1.0 200 OK\r\n"), std::string::npos);
  EXPECT_NE(s.find("Content-Length: 5\r\n"), std::string::npos);
}

TEST(HttpParser, ParsesRequestInOneChunk) {
  HttpParser p(HttpParser::Kind::kRequest);
  EXPECT_TRUE(p.feed(to_bytes("GET /x HTTP/1.0\r\nHost: a\r\n\r\n")));
  EXPECT_EQ(p.request().method, "GET");
  EXPECT_EQ(p.request().path, "/x");
  EXPECT_EQ(p.request().header("host"), "a");  // case-insensitive
}

TEST(HttpParser, ParsesResponseByteByByte) {
  HttpParser p(HttpParser::Kind::kResponse);
  const std::string wire = "HTTP/1.0 404 Not Found\r\nContent-Length: 3\r\n\r\nxyz";
  bool complete = false;
  for (const char c : wire) {
    complete = p.feed(util::ByteView(reinterpret_cast<const std::uint8_t*>(&c), 1));
  }
  ASSERT_TRUE(complete);
  EXPECT_EQ(p.response().status, 404);
  EXPECT_EQ(p.response().reason, "Not Found");
  EXPECT_EQ(util::to_string(p.response().body), "xyz");
}

TEST(HttpParser, ResponseWithoutLengthEndsAtEof) {
  HttpParser p(HttpParser::Kind::kResponse);
  EXPECT_FALSE(p.feed(to_bytes("HTTP/1.0 200 OK\r\n\r\npartial body")));
  EXPECT_FALSE(p.complete());
  EXPECT_TRUE(p.feed_eof());
  EXPECT_EQ(util::to_string(p.response().body), "partial body");
}

TEST(HttpParser, EofBeforeHeadersFails) {
  HttpParser p(HttpParser::Kind::kResponse);
  p.feed(to_bytes("HTTP/1.0 200"));
  EXPECT_FALSE(p.feed_eof());
  EXPECT_TRUE(p.failed());
}

TEST(Url, ParseVariants) {
  auto abs = parse_url("http://10.0.0.200/file.tgz");
  ASSERT_TRUE(abs.has_value());
  EXPECT_EQ(abs->ip, Ipv4Addr(10, 0, 0, 200));
  EXPECT_EQ(abs->port, 80);
  EXPECT_EQ(abs->path, "/file.tgz");

  auto with_port = parse_url("http://10.0.0.200:8080/x");
  ASSERT_TRUE(with_port.has_value());
  EXPECT_EQ(with_port->port, 8080);

  auto rel = parse_url("file.tgz");
  ASSERT_TRUE(rel.has_value());
  EXPECT_FALSE(rel->ip.has_value());
  EXPECT_EQ(rel->path, "/file.tgz");

  EXPECT_FALSE(parse_url("http://not-an-ip/x").has_value());
}

// ---- HTTP over the simulated network --------------------------------------------

struct HttpFixture {
  sim::Simulator sim{21};
  net::Switch lan{sim};
  std::unique_ptr<net::Host> client;
  std::unique_ptr<net::Host> server;

  HttpFixture() {
    client = std::make_unique<net::Host>(sim, "client");
    client->add_wired("eth0", lan, MacAddr::from_id(0xC1));
    client->configure("eth0", Ipv4Addr(10, 0, 0, 1), 24);
    server = std::make_unique<net::Host>(sim, "server");
    server->add_wired("eth0", lan, MacAddr::from_id(0x51));
    server->configure("eth0", Ipv4Addr(10, 0, 0, 2), 24);
  }
};

TEST(Http, GetRoundTrip) {
  HttpFixture f;
  HttpServer server(*f.server, 80);
  server.route("/hello", [](const HttpRequest&) {
    HttpResponse resp;
    resp.body = to_bytes("world");
    return resp;
  });

  HttpResult result;
  HttpClient::get(*f.client, Ipv4Addr(10, 0, 0, 2), 80, "/hello",
                  [&](const HttpResult& r) { result = r; });
  f.sim.run_until(5 * sim::kSecond);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.response.status, 200);
  EXPECT_EQ(util::to_string(result.response.body), "world");
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(Http, UnknownPathIs404) {
  HttpFixture f;
  HttpServer server(*f.server, 80);
  HttpResult result;
  HttpClient::get(*f.client, Ipv4Addr(10, 0, 0, 2), 80, "/missing",
                  [&](const HttpResult& r) { result = r; });
  f.sim.run_until(5 * sim::kSecond);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.response.status, 404);
}

TEST(Http, LargeBodyTransfers) {
  HttpFixture f;
  HttpServer server(*f.server, 80);
  const Bytes blob = make_release_blob(1, 64 * 1024)->bytes;
  server.route("/big", [&blob](const HttpRequest&) {
    HttpResponse resp;
    resp.body = blob;
    return resp;
  });
  HttpResult result;
  HttpClient::get(*f.client, Ipv4Addr(10, 0, 0, 2), 80, "/big",
                  [&](const HttpResult& r) { result = r; });
  f.sim.run_until(30 * sim::kSecond);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.response.body, blob);
}

TEST(Http, TimeoutWhenServerSilent) {
  HttpFixture f;
  net::Rule drop;
  drop.match.protocol = net::kProtoTcp;
  drop.target = net::RuleTarget::kDrop;
  f.server->netfilter().append(net::Hook::kInput, drop);

  HttpResult result;
  bool called = false;
  HttpClient::get(
      *f.client, Ipv4Addr(10, 0, 0, 2), 80, "/x",
      [&](const HttpResult& r) {
        result = r;
        called = true;
      },
      /*timeout=*/3 * sim::kSecond);
  f.sim.run_until(10 * sim::kSecond);
  EXPECT_TRUE(called);
  EXPECT_FALSE(result.ok);
}

// ---- netsed ---------------------------------------------------------------------

TEST(NetsedApply, ReplacesAllOccurrences) {
  std::uint64_t n = 0;
  const Bytes out = netsed_apply({NetsedRule::from_strings("aa", "XYZ")},
                                 to_bytes("aa-bb-aa-aa"), &n);
  EXPECT_EQ(util::to_string(out), "XYZ-bb-XYZ-XYZ");
  EXPECT_EQ(n, 3u);
}

TEST(NetsedApply, MultipleRulesSequential) {
  const std::vector<NetsedRule> rules = {
      NetsedRule::from_strings("href=file.tgz", "href=http://evil/file.tgz"),
      NetsedRule::from_strings("REALSUM", "FAKESUM"),
  };
  const Bytes out =
      netsed_apply(rules, to_bytes("<a href=file.tgz>get</a> MD5SUM: REALSUM"));
  EXPECT_EQ(util::to_string(out),
            "<a href=http://evil/file.tgz>get</a> MD5SUM: FAKESUM");
}

TEST(NetsedApply, NoMatchPassesThrough) {
  const Bytes in = to_bytes("nothing to see");
  EXPECT_EQ(netsed_apply({NetsedRule::from_strings("zzz", "yyy")}, in), in);
}

TEST(NetsedApply, ReplacementContainingPatternDoesNotLoop) {
  const Bytes out = netsed_apply({NetsedRule::from_strings("x", "xx")},
                                 to_bytes("axa"));
  EXPECT_EQ(util::to_string(out), "axxa");
}

struct NetsedFixture {
  sim::Simulator sim{31};
  net::Switch lan{sim};
  std::unique_ptr<net::Host> client;
  std::unique_ptr<net::Host> proxy;
  std::unique_ptr<net::Host> server;

  NetsedFixture() {
    client = std::make_unique<net::Host>(sim, "client");
    client->add_wired("eth0", lan, MacAddr::from_id(0xC1));
    client->configure("eth0", Ipv4Addr(10, 0, 0, 1), 24);
    proxy = std::make_unique<net::Host>(sim, "proxy");
    proxy->add_wired("eth0", lan, MacAddr::from_id(0xAA));
    proxy->configure("eth0", Ipv4Addr(10, 0, 0, 5), 24);
    server = std::make_unique<net::Host>(sim, "server");
    server->add_wired("eth0", lan, MacAddr::from_id(0x51));
    server->configure("eth0", Ipv4Addr(10, 0, 0, 2), 24);
  }
};

TEST(Netsed, ProxiesAndRewritesResponses) {
  NetsedFixture f;
  HttpServer server(*f.server, 80);
  server.route("/page", [](const HttpRequest&) {
    HttpResponse resp;
    resp.body = to_bytes("the SECRET word");
    return resp;
  });
  Netsed netsed(*f.proxy, 10101, Ipv4Addr(10, 0, 0, 2), 80,
                {NetsedRule::from_strings("SECRET", "PUBLIC")});

  HttpResult result;
  HttpClient::get(*f.client, Ipv4Addr(10, 0, 0, 5), 10101, "/page",
                  [&](const HttpResult& r) { result = r; });
  f.sim.run_until(10 * sim::kSecond);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(util::to_string(result.response.body), "the PUBLIC word");
  EXPECT_EQ(netsed.stats().connections, 1u);
  EXPECT_EQ(netsed.stats().replacements, 1u);
}

TEST(Netsed, PerSegmentModeMissesSplitMatch) {
  // §4.2: "netsed will not match strings that cross packet boundaries".
  NetsedFixture f;
  f.server->tcp_listen(80, [&](net::TcpConnectionPtr c) {
    c->set_on_data([c, &f](util::ByteView) {
      c->send(to_bytes("xxSEC"));
      f.sim.after(200'000, [c] {
        c->send(to_bytes("RETxx"));
        c->close();
      });
    });
  });
  Netsed netsed(*f.proxy, 10101, Ipv4Addr(10, 0, 0, 2), 80,
                {NetsedRule::from_strings("SECRET", "PUBLIC")},
                NetsedMode::kPerSegment);

  std::string got;
  auto conn = f.client->tcp_connect(Ipv4Addr(10, 0, 0, 5), 10101);
  conn->set_on_connect([conn] { conn->send(to_bytes("go")); });
  conn->set_on_data([&](util::ByteView d) { got += util::to_string(d); });
  f.sim.run_until(10 * sim::kSecond);
  EXPECT_EQ(got, "xxSECRETxx");  // match missed: bytes pass unmodified
  EXPECT_EQ(netsed.stats().replacements, 0u);
}

TEST(Netsed, StreamingModeCatchesSplitMatch) {
  // The "could easily be addressed" fix (§4.2).
  NetsedFixture f;
  f.server->tcp_listen(80, [&](net::TcpConnectionPtr c) {
    c->set_on_data([c, &f](util::ByteView) {
      c->send(to_bytes("xxSEC"));
      f.sim.after(200'000, [c] {
        c->send(to_bytes("RETxx"));
        c->close();
      });
    });
  });
  Netsed netsed(*f.proxy, 10101, Ipv4Addr(10, 0, 0, 2), 80,
                {NetsedRule::from_strings("SECRET", "PUBLIC")},
                NetsedMode::kStreaming);

  std::string got;
  auto conn = f.client->tcp_connect(Ipv4Addr(10, 0, 0, 5), 10101);
  conn->set_on_connect([conn] { conn->send(to_bytes("go")); });
  conn->set_on_data([&](util::ByteView d) { got += util::to_string(d); });
  f.sim.run_until(10 * sim::kSecond);
  EXPECT_EQ(got, "xxPUBLICxx");
  EXPECT_EQ(netsed.stats().replacements, 1u);
}

TEST(Netsed, StreamingFlushesHeldBytesAtEof) {
  NetsedFixture f;
  f.server->tcp_listen(80, [&](net::TcpConnectionPtr c) {
    c->set_on_data([c](util::ByteView) {
      c->send(to_bytes("ends with SEC"));  // proper prefix of the pattern
      c->close();
    });
  });
  Netsed netsed(*f.proxy, 10101, Ipv4Addr(10, 0, 0, 2), 80,
                {NetsedRule::from_strings("SECRET", "PUBLIC")},
                NetsedMode::kStreaming);
  std::string got;
  auto conn = f.client->tcp_connect(Ipv4Addr(10, 0, 0, 5), 10101);
  conn->set_on_connect([conn] { conn->send(to_bytes("go")); });
  conn->set_on_data([&](util::ByteView d) { got += util::to_string(d); });
  f.sim.run_until(10 * sim::kSecond);
  EXPECT_EQ(got, "ends with SEC");  // held bytes flushed when stream ends
}

// ---- Download workload ----------------------------------------------------------

TEST(DownloadPage, RenderAndParse) {
  const std::string html =
      render_download_page("file.tgz", "0123456789abcdef0123456789abcdef");
  const auto info = parse_download_page(html);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->href, "file.tgz");
  EXPECT_EQ(info->md5_hex, "0123456789abcdef0123456789abcdef");
}

TEST(DownloadPage, ParseRewrittenAbsoluteLink) {
  const std::string html =
      render_download_page("http://10.0.0.200/file.tgz", std::string(32, 'a'));
  const auto info = parse_download_page(html);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->href, "http://10.0.0.200/file.tgz");
}

TEST(DownloadPage, RejectsGarbage) {
  EXPECT_FALSE(parse_download_page("<html>nothing here</html>").has_value());
  EXPECT_FALSE(parse_download_page("href=x MD5SUM: zz").has_value());
}

TEST(ReleaseBlob, DeterministicPerSeed) {
  EXPECT_EQ(make_release_blob(1, 1000)->bytes, make_release_blob(1, 1000)->bytes);
  EXPECT_NE(make_release_blob(1, 1000)->bytes, make_release_blob(2, 1000)->bytes);
}

TEST(ReleaseBlob, CacheSharesOneImmutableBlobPerSeedAndSize) {
  const ReleaseBlobPtr a = make_release_blob(0x5EED, 3000);
  EXPECT_EQ(make_release_blob(0x5EED, 3000), a);  // same object, not a copy
  EXPECT_EQ(a->bytes.size(), 3000u);
  EXPECT_EQ(a->md5_hex, crypto::md5_hex(a->bytes));
  EXPECT_EQ(util::to_string(ByteView(a->bytes).subspan(0, 13)), "RELEASE-24301");

  // Another seed or another size is another blob.
  for (const ReleaseBlobPtr& other :
       {make_release_blob(0x5EEE, 3000), make_release_blob(0x5EED, 3001),
        make_release_blob(0x5EED, 2999)}) {
    EXPECT_NE(other, a);
    EXPECT_NE(other->md5_hex, a->md5_hex);
    EXPECT_EQ(other->md5_hex, crypto::md5_hex(other->bytes));
  }
  EXPECT_NE(make_release_blob(0x5EEE, 3000)->bytes, a->bytes);
}

TEST(ReleaseBlob, ConcurrentFirstUseBuildsOneBlob) {
  // Sweep workers build worlds concurrently; racing first uses of a key
  // must all get the same fully built blob.
  constexpr std::size_t kThreads = 8;
  std::vector<ReleaseBlobPtr> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&got, t] { got[t] = make_release_blob(0xC0C0, 64 * 1024); });
  }
  for (auto& th : threads) th.join();
  for (const ReleaseBlobPtr& p : got) {
    ASSERT_EQ(p, got[0]);
    EXPECT_EQ(p->md5_hex, crypto::md5_hex(p->bytes));
  }
}

TEST(Download, CleanNetworkVerifies) {
  HttpFixture f;
  HttpServer server(*f.server, 80);
  const ReleaseBlobPtr release = make_release_blob(0xFEED, 8192);
  install_download_site(server, release);

  DownloadOutcome outcome;
  run_download(*f.client, Ipv4Addr(10, 0, 0, 2), 80,
               [&](const DownloadOutcome& o) { outcome = o; });
  f.sim.run_until(30 * sim::kSecond);

  EXPECT_TRUE(outcome.page_fetched);
  EXPECT_TRUE(outcome.file_fetched);
  EXPECT_TRUE(outcome.md5_verified);
  EXPECT_EQ(outcome.fetched_md5_hex, crypto::md5_hex(release->bytes));
  EXPECT_EQ(outcome.fetched_from, Ipv4Addr(10, 0, 0, 2));
}

TEST(Download, TamperedBinaryWithoutMd5RewriteIsCaught) {
  // If the attacker only swaps the binary but not the checksum, the
  // victim's verification catches it — motivating the paper's dual rewrite.
  HttpFixture f;
  HttpServer server(*f.server, 80);
  const Bytes release = make_release_blob(0xFEED, 8192)->bytes;
  const Bytes trojan = make_release_blob(0xBAD, 8192)->bytes;
  const std::string md5 = crypto::md5_hex(release);
  server.route(std::string(kDownloadPagePath), [md5](const HttpRequest&) {
    HttpResponse resp;
    resp.body = to_bytes(render_download_page("file.tgz", md5));
    return resp;
  });
  server.route(std::string(kDownloadFilePath), [trojan](const HttpRequest&) {
    HttpResponse resp;
    resp.body = trojan;
    return resp;
  });

  DownloadOutcome outcome;
  run_download(*f.client, Ipv4Addr(10, 0, 0, 2), 80,
               [&](const DownloadOutcome& o) { outcome = o; });
  f.sim.run_until(30 * sim::kSecond);
  EXPECT_TRUE(outcome.file_fetched);
  EXPECT_FALSE(outcome.md5_verified);
}

}  // namespace
}  // namespace rogue::apps
