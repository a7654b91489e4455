#include "reference/seed_attributor.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <unordered_map>

#include "net/capture.hpp"
#include "radar/ant.hpp"
#include "util/strings.hpp"

namespace libspector::reference {

using core::FlowRecord;
using core::RunArtifacts;
using core::UdpReport;

SeedAttributor::SeedAttributor(const radar::LibraryCorpus& corpus,
                               vtsim::DomainCategorizer& domains,
                               SeedMode mode, core::AttributorConfig config)
    : corpus_(corpus),
      domains_(domains),
      config_(config),
      useCaptureIndex_(mode == SeedMode::NoInterning),
      memoizeFrames_(mode == SeedMode::NoInterning),
      program_(mode == SeedMode::NoInterning
                   ? std::make_unique<const core::AttributionProgram>(
                         corpus, core::builtinFramePrefixes(),
                         radar::antLibraries(), radar::commonLibraries())
                   : nullptr),
      pool_(std::make_unique<util::SymbolPool>()) {}

SeedAttributor::FrameInfo SeedAttributor::computeFrameInfo(
    std::string_view signature) const {
  FrameInfo info;
  std::string originLibrary = core::packageOfEntry(signature);
  if (originLibrary.empty()) originLibrary = core::frameNameOf(signature);
  info.originLibrary = pool_->intern(originLibrary);
  info.twoLevelLibrary = pool_->intern(util::prefixLevels(originLibrary, 2));
  if (program_ != nullptr) {
    // One compiled walk answers the builtin filter; a second answers the
    // ant/common lists and the corpus election for the origin package.
    info.builtin = program_->isBuiltinFrame(signature);
    info.junkPackage = core::AttributionProgram::isJunkPackageEntry(signature);
    const core::AttributionProgram::Lookup hit =
        program_->lookupPackage(originLibrary);
    info.libraryCategory = pool_->intern(program_->categoryOf(hit));
    info.ant = hit.ant;
    info.common = hit.common;
  } else {
    info.builtin = core::isBuiltinFrame(signature);
    info.junkPackage = core::isJunkPackageFrame(signature);
    info.libraryCategory =
        pool_->intern(corpus_.matchCategory(originLibrary).category);
    info.ant = radar::antLibraries().matches(originLibrary);
    info.common = radar::commonLibraries().matches(originLibrary);
  }
  info.reflectMarker = core::isReflectionMarkerFrame(signature);
  return info;
}

std::vector<FlowRecord> SeedAttributor::attribute(
    const RunArtifacts& run) const {
  // 1. IP -> (time, domain) table from the DNS responses in the capture,
  //    so each flow maps to the domain resolved most recently before it.
  //    Domains are views into the capture's packets (which outlive this
  //    call) — no per-packet string copies.
  std::unordered_map<net::Ipv4Addr,
                     std::vector<std::pair<util::SimTimeMs, std::string_view>>>
      dnsByIp;
  // The capture records answered-DNS packet indices on append, so this
  // visits exactly the packets that matter instead of scanning the whole
  // capture for them (queries and NXDOMAINs were already excluded there).
  const auto& capturePackets = run.capture.packets();
  for (const std::uint32_t i : run.capture.dnsAnswerPackets()) {
    const auto& pkt = capturePackets[i];
    dnsByIp[pkt.dnsAnswer].emplace_back(pkt.timestampMs,
                                        std::string_view(pkt.dnsQname));
  }
  for (auto& [ip, entries] : dnsByIp)
    std::sort(entries.begin(), entries.end());

  const auto domainFor = [&](net::Ipv4Addr ip,
                             util::SimTimeMs when) -> std::string_view {
    const auto it = dnsByIp.find(ip);
    if (it == dnsByIp.end()) return {};
    std::string_view best;
    for (const auto& [ts, domain] : it->second) {
      if (ts > when) break;
      best = domain;
    }
    // A resolution can postdate the report stamp by the handshake RTT.
    if (best.empty() && !it->second.empty()) best = it->second.front().second;
    return best;
  };

  // 1b. HTTP Host headers dissected from the capture are authoritative for
  //     their socket: on co-hosted addresses (CDNs) DNS correlation alone
  //     is ambiguous. One flat index sort groups the exchanges by socket
  //     and orders each group chronologically; hostFor picks the first
  //     in-window exchange.
  const auto& exchanges = run.capture.httpExchanges();
  std::vector<std::uint32_t> exchangeOrder(exchanges.size());
  for (std::uint32_t i = 0; i < exchangeOrder.size(); ++i) exchangeOrder[i] = i;
  std::sort(exchangeOrder.begin(), exchangeOrder.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const net::HttpExchange& ea = exchanges[a];
              const net::HttpExchange& eb = exchanges[b];
              if (!(ea.pair == eb.pair)) return ea.pair < eb.pair;
              if (ea.timestampMs != eb.timestampMs)
                return ea.timestampMs < eb.timestampMs;
              return ea.host < eb.host;
            });

  const auto hostFor = [&](const net::SocketPair& pair, util::SimTimeMs from,
                           util::SimTimeMs to) -> std::string_view {
    auto it = std::lower_bound(exchangeOrder.begin(), exchangeOrder.end(),
                               pair,
                               [&](std::uint32_t i, const net::SocketPair& p) {
                                 return exchanges[i].pair < p;
                               });
    for (; it != exchangeOrder.end() && exchanges[*it].pair == pair; ++it) {
      const net::HttpExchange& exchange = exchanges[*it];
      if (exchange.timestampMs > to) break;
      if (exchange.timestampMs >= from)
        return std::string_view(exchange.host);
    }
    return {};
  };

  // 1c. Index the capture once (NoInterning) or rescan all P packets per
  //     flow (Seed).
  std::optional<net::CaptureIndex> captureIndex;
  if (useCaptureIndex_) captureIndex.emplace(run.capture);
  const auto volumeFor = [&](const net::SocketPair& pair, util::SimTimeMs from,
                             util::SimTimeMs to) {
    return captureIndex ? captureIndex->streamVolume(pair, from, to)
                        : run.capture.streamVolume(pair, from, to);
  };

  // 1d. Per-call memos keyed by views into run.reports (which outlives
  //     this call), or no memo at all (Seed).
  std::unordered_map<std::string_view, bool> builtinMemo;
  std::unordered_map<std::string_view, bool> junkMemo;
  std::unordered_map<std::string_view, FrameInfo> originMemo;

  const auto isBuiltinOf = [&](const std::string& frame) -> bool {
    if (!memoizeFrames_) return core::isBuiltinFrame(frame);
    const auto [it, inserted] = builtinMemo.try_emplace(frame, false);
    if (inserted) it->second = core::isBuiltinFrame(frame);
    return it->second;
  };
  const auto isJunkOf = [&](const std::string& frame) -> bool {
    if (!memoizeFrames_) return core::isJunkPackageFrame(frame);
    const auto [it, inserted] = junkMemo.try_emplace(frame, false);
    if (inserted) it->second = core::isJunkPackageFrame(frame);
    return it->second;
  };
  const auto isReflectOf = [&](const std::string& frame) -> bool {
    return core::isReflectionMarkerFrame(frame);
  };
  const auto originIndexOf =
      [&](std::span<const std::string> stack) -> std::optional<std::size_t> {
    for (std::size_t i = stack.size(); i-- > 0;) {
      if (isBuiltinOf(stack[i])) continue;
      if (config_.elideTrampolines &&
          (isJunkOf(stack[i]) || (i >= 1 && isReflectOf(stack[i - 1]))))
        continue;
      return i;
    }
    return std::nullopt;
  };
  const auto originInfoFor = [&](const std::string& signature) -> FrameInfo {
    if (!memoizeFrames_) return computeFrameInfo(signature);
    const auto [it, inserted] = originMemo.try_emplace(signature);
    if (inserted) it->second = computeFrameInfo(signature);
    return it->second;
  };

  // 1e. Domain memo (NoInterning) so the categorizer's global lock is
  //     taken once per domain, not once per flow.
  struct DomainSyms {
    util::Symbol domain;
    util::Symbol category;
  };
  std::unordered_map<std::string_view, DomainSyms> domainMemo;

  // 2. Connection windows: reports sharing a socket pair (ephemeral port
  //    reuse) are disambiguated chronologically — each report owns the
  //    window from just before its connect until the next same-pair report.
  std::vector<std::uint32_t> reportOrder(run.reports.size());
  for (std::uint32_t i = 0; i < reportOrder.size(); ++i) reportOrder[i] = i;
  std::sort(reportOrder.begin(), reportOrder.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const UdpReport& ra = run.reports[a];
              const UdpReport& rb = run.reports[b];
              if (ra.socketPair != rb.socketPair)
                return ra.socketPair < rb.socketPair;
              return ra.timestampMs < rb.timestampMs;
            });

  std::vector<FlowRecord> flows;
  flows.reserve(run.reports.size());

  // Per-run constants interned once, not once per flow.
  const util::Symbol apkSym = pool_->intern(run.apkSha256);
  const util::Symbol packageSym = pool_->intern(run.packageName);
  const util::Symbol appCategorySym = pool_->intern(run.appCategory);
  const util::Symbol unknownDomainCategorySym =
      pool_->intern(vtsim::kUnknownDomainCategory);
  const util::Symbol unknownLibraryCategorySym =
      pool_->intern(radar::kUnknownCategory);

  for (std::size_t groupFirst = 0; groupFirst < reportOrder.size();) {
    const net::SocketPair pair =
        run.reports[reportOrder[groupFirst]].socketPair;
    std::size_t groupLast = groupFirst + 1;
    while (groupLast < reportOrder.size() &&
           run.reports[reportOrder[groupLast]].socketPair == pair)
      ++groupLast;
    const std::span<const std::uint32_t> indices(
        reportOrder.data() + groupFirst, groupLast - groupFirst);
    groupFirst = groupLast;
    for (std::size_t k = 0; k < indices.size(); ++k) {
      const UdpReport& report = run.reports[indices[k]];
      // Keep-alive boundary reports (ordinal >= 1) start their window at
      // the report stamp; connect reports keep the handshake slack.
      const util::SimTimeMs from =
          report.requestOrdinal > 0 ? report.timestampMs
          : report.timestampMs > config_.connectSlackMs
              ? report.timestampMs - config_.connectSlackMs
              : 0;
      const util::SimTimeMs to =
          k + 1 < indices.size()
              ? run.reports[indices[k + 1]].timestampMs - 1
              : std::numeric_limits<util::SimTimeMs>::max();

      const auto volume = volumeFor(pair, from, to);

      FlowRecord flow;
      flow.apkSha256 = apkSym;
      flow.appPackage = packageSym;
      flow.appCategory = appCategorySym;
      flow.socketPair = pair;
      flow.connectTimeMs = report.timestampMs;
      flow.sentBytes = volume.payloadFromSrc;
      flow.recvBytes = volume.payloadFromDst;
      flow.requestOrdinal = report.requestOrdinal;
      flow.rttMs = volume.rttMs();

      std::string_view domain = hostFor(pair, from, to);
      if (domain.empty()) domain = domainFor(pair.dst.ip, report.timestampMs);
      if (memoizeFrames_) {
        const auto [it, inserted] = domainMemo.try_emplace(domain);
        if (inserted) {
          it->second.domain = pool_->intern(domain);
          it->second.category =
              domain.empty()
                  ? unknownDomainCategorySym
                  : pool_->intern(
                        domains_.categorize(std::string(domain)).category);
        }
        flow.domain = it->second.domain;
        flow.domainCategory = it->second.category;
      } else {
        flow.domainCategory =
            domain.empty()
                ? unknownDomainCategorySym
                : pool_->intern(
                      domains_.categorize(std::string(domain)).category);
        flow.domain = pool_->intern(domain);
      }

      const auto origin = originIndexOf(report.stackSignatures);
      if (origin) {
        const std::string& signature = report.stackSignatures[*origin];
        flow.originSignature = pool_->intern(signature);
        const FrameInfo info = originInfoFor(signature);
        flow.originLibrary = info.originLibrary;
        flow.twoLevelLibrary = info.twoLevelLibrary;
        flow.libraryCategory = info.libraryCategory;
        flow.antOrigin = info.ant;
        flow.commonOrigin = info.common;
      } else {
        flow.builtinOrigin = true;
        std::string star = "*-";
        star.append(flow.domainCategory.view());
        flow.originLibrary = pool_->intern(star);
        flow.twoLevelLibrary = flow.originLibrary;
        flow.libraryCategory = unknownLibraryCategorySym;
      }

      flows.push_back(flow);
    }
  }

  // Keep report order stable for callers (the grouping reordered them).
  std::sort(flows.begin(), flows.end(),
            [](const FlowRecord& a, const FlowRecord& b) {
              return a.connectTimeMs < b.connectTimeMs;
            });
  return flows;
}

}  // namespace libspector::reference
