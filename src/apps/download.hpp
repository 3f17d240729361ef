// The paper's §4.1 target scenario: "a sample target download web page
// which contained a downloadable binary, a link to that downloadable
// binary and an MD5SUM of that binary", plus a client that downloads the
// page, follows the link, and verifies the checksum — the step the attack
// subverts by rewriting both the link and the MD5SUM.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "apps/http.hpp"
#include "crypto/md5.hpp"
#include "net/host.hpp"

namespace rogue::apps {

/// Markers used on the download page. Kept as stable tokens so the
/// rogue's netsed rules can target them exactly as in the paper.
inline constexpr std::string_view kDownloadPagePath = "/download.html";
inline constexpr std::string_view kDownloadFilePath = "/file.tgz";

/// Deterministic "software release" content and its `md5sum`.
struct ReleaseBlob {
  util::Bytes bytes;
  std::string md5_hex;
};
using ReleaseBlobPtr = std::shared_ptr<const ReleaseBlob>;

/// The release blob for (seed, size). Pure in its arguments, so each one
/// is built and hashed once per process and then shared, immutable, by
/// every world and server that serves it. Thread-safe.
[[nodiscard]] ReleaseBlobPtr make_release_blob(std::uint64_t seed, std::size_t size);

/// Render the download page HTML: a link plus the published MD5SUM.
[[nodiscard]] std::string render_download_page(std::string_view href,
                                               std::string_view md5_hex);

/// Install the legitimate download site onto an HTTP server:
/// /download.html links to file.tgz and publishes md5(file).
void install_download_site(HttpServer& server, ReleaseBlobPtr file);

/// Install the attacker's mirror hosting a trojaned blob at /file.tgz.
void install_trojan_site(HttpServer& server, ReleaseBlobPtr trojan);

/// Extracted page fields.
struct DownloadPageInfo {
  std::string href;
  std::string md5_hex;
};
[[nodiscard]] std::optional<DownloadPageInfo> parse_download_page(
    std::string_view html);

/// Outcome of a full fetch-parse-download-verify cycle.
struct DownloadOutcome {
  bool page_fetched = false;
  bool file_fetched = false;
  bool md5_verified = false;     ///< published MD5 == md5(downloaded file)
  std::string fetched_md5_hex;   ///< md5 of what was actually downloaded
  std::string published_md5_hex; ///< MD5SUM printed on the page
  net::Ipv4Addr fetched_from;    ///< server the binary came from
  std::string error;
};

/// Asynchronous downloader: GET the page from (ip, port), follow the href
/// (relative or absolute), verify the MD5, report.
void run_download(net::Host& client, net::Ipv4Addr ip, std::uint16_t port,
                  std::function<void(const DownloadOutcome&)> done);

}  // namespace rogue::apps
