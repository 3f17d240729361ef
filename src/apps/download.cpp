#include "apps/download.hpp"

#include <map>
#include <mutex>
#include <utility>

#include "util/fmt.hpp"
#include "util/prng.hpp"

namespace rogue::apps {

namespace {
[[nodiscard]] ReleaseBlob build_release_blob(std::uint64_t seed, std::size_t size) {
  ReleaseBlob blob;
  blob.bytes.resize(size);
  util::Prng rng(seed);
  rng.fill(blob.bytes);
  // A little structure so the blob looks like a tarball, not noise.
  const std::string header = util::format("RELEASE-{}\n", seed);
  for (std::size_t i = 0; i < header.size() && i < size; ++i) {
    blob.bytes[i] = static_cast<std::uint8_t>(header[i]);
  }
  blob.md5_hex = crypto::md5_hex(blob.bytes);
  return blob;
}

/// Serves `blob` as the download file at kDownloadFilePath.
void route_file(HttpServer& server, ReleaseBlobPtr blob) {
  server.route(std::string(kDownloadFilePath),
               [blob = std::move(blob)](const HttpRequest&) {
                 HttpResponse resp;
                 resp.headers.emplace_back("Content-Type", "application/octet-stream");
                 resp.body = blob->bytes;
                 return resp;
               });
}
}  // namespace

ReleaseBlobPtr make_release_blob(std::uint64_t seed, std::size_t size) {
  static std::mutex mutex;
  static std::map<std::pair<std::uint64_t, std::size_t>, ReleaseBlobPtr> cache;
  const std::lock_guard<std::mutex> lock(mutex);
  ReleaseBlobPtr& slot = cache[{seed, size}];
  if (!slot) slot = std::make_shared<const ReleaseBlob>(build_release_blob(seed, size));
  return slot;
}

std::string render_download_page(std::string_view href, std::string_view md5_hex) {
  return util::format(
      "<html><head><title>Download</title></head><body>\n"
      "<h1>Project Release</h1>\n"
      "<p>Get the latest release here: <a href={}>file.tgz</a></p>\n"
      "<p>MD5SUM: {}</p>\n"
      "</body></html>\n",
      href, md5_hex);
}

void install_download_site(HttpServer& server, ReleaseBlobPtr file) {
  server.route(std::string(kDownloadPagePath), [md5 = file->md5_hex](const HttpRequest&) {
    HttpResponse resp;
    resp.headers.emplace_back("Content-Type", "text/html");
    resp.body = util::to_bytes(render_download_page("file.tgz", md5));
    return resp;
  });
  route_file(server, std::move(file));
}

void install_trojan_site(HttpServer& server, ReleaseBlobPtr trojan) {
  route_file(server, std::move(trojan));
}

std::optional<DownloadPageInfo> parse_download_page(std::string_view html) {
  DownloadPageInfo info;

  const std::size_t href_pos = html.find("href=");
  if (href_pos == std::string_view::npos) return std::nullopt;
  std::size_t start = href_pos + 5;
  if (start < html.size() && (html[start] == '"' || html[start] == '\'')) ++start;
  std::size_t end = start;
  while (end < html.size() && html[end] != '>' && html[end] != ' ' &&
         html[end] != '"' && html[end] != '\'') {
    ++end;
  }
  info.href = std::string(html.substr(start, end - start));

  const std::size_t md5_pos = html.find("MD5SUM:");
  if (md5_pos == std::string_view::npos) return std::nullopt;
  std::size_t m = md5_pos + 7;
  while (m < html.size() && html[m] == ' ') ++m;
  std::size_t me = m;
  while (me < html.size() && std::isxdigit(static_cast<unsigned char>(html[me]))) {
    ++me;
  }
  info.md5_hex = std::string(html.substr(m, me - m));
  if (info.md5_hex.size() != 32) return std::nullopt;
  return info;
}

void run_download(net::Host& client, net::Ipv4Addr ip, std::uint16_t port,
                  std::function<void(const DownloadOutcome&)> done) {
  auto outcome = std::make_shared<DownloadOutcome>();

  HttpClient::get(
      client, ip, port, std::string(kDownloadPagePath),
      [&client, ip, port, outcome, done = std::move(done)](const HttpResult& page) {
        if (!page.ok || page.response.status != 200) {
          outcome->error = page.ok ? "page status" : page.error;
          done(*outcome);
          return;
        }
        outcome->page_fetched = true;

        const auto info = parse_download_page(util::to_string(page.response.body));
        if (!info) {
          outcome->error = "unparsable page";
          done(*outcome);
          return;
        }
        outcome->published_md5_hex = info->md5_hex;

        const auto url = parse_url(info->href);
        if (!url) {
          outcome->error = "unparsable href";
          done(*outcome);
          return;
        }
        const net::Ipv4Addr file_ip = url->ip.value_or(ip);
        const std::uint16_t file_port = url->ip ? url->port : port;

        HttpClient::get(
            client, file_ip, file_port, url->path,
            [outcome, done, file_ip](const HttpResult& file) {
              if (!file.ok || file.response.status != 200) {
                outcome->error = file.ok ? "file status" : file.error;
                done(*outcome);
                return;
              }
              outcome->file_fetched = true;
              outcome->fetched_from = file_ip;
              outcome->fetched_md5_hex = crypto::md5_hex(file.response.body);
              outcome->md5_verified =
                  outcome->fetched_md5_hex == outcome->published_md5_hex;
              done(*outcome);
            });
      });
}

}  // namespace rogue::apps
