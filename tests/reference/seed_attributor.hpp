// The seed attributor: the pre-acceleration attribution code, frozen as a
// reference oracle for tests and the speedup benches.
//
// core::TrafficAttributor has one production path (capture index, cross-run
// frame cache, domain memo, compiled AttributionProgram). The code it grew
// out of lives here, moved verbatim rather than rewritten, so that the
// differential tests and the bench floors keep comparing against the same
// baseline while the production path evolves. Nothing under src/ links
// this library; only tests and bench/{attribution_throughput,
// wire_and_memory} do.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/artifacts.hpp"
#include "core/attribution.hpp"
#include "core/attribution_program.hpp"
#include "radar/corpus.hpp"
#include "util/symbol.hpp"
#include "vtsim/categorizer.hpp"

namespace libspector::reference {

/// The two historical configurations the benches measure against.
enum class SeedMode {
  /// The seed as it first shipped: a full capture scan per flow, no memos,
  /// the string-prefix reference matchers, no symbol interning
  /// (bench/attribution_throughput's baseline).
  Seed,
  /// Every acceleration except the cross-run frame cache: capture index,
  /// per-run frame and domain memos and the compiled program, but each
  /// run re-derives its frames from strings (bench/wire_and_memory's
  /// legacy end-to-end baseline).
  NoInterning,
};

class SeedAttributor {
 public:
  /// Reads `connectSlackMs` and `elideTrampolines` from `config`; the
  /// attribution itself follows `mode`.
  SeedAttributor(const radar::LibraryCorpus& corpus,
                 vtsim::DomainCategorizer& domains, SeedMode mode,
                 core::AttributorConfig config = {});

  /// Attribute every reported socket of one app run. Thread-safe: all
  /// memos are per call and the pool is internally synchronized.
  [[nodiscard]] std::vector<core::FlowRecord> attribute(
      const core::RunArtifacts& run) const;

  /// The pool backing every Symbol in the flows this attributor returns.
  [[nodiscard]] const util::SymbolPool& symbols() const noexcept {
    return *pool_;
  }

 private:
  /// Everything attribution derives from one distinct stack frame.
  struct FrameInfo {
    bool builtin = false;
    util::Symbol originLibrary;
    util::Symbol twoLevelLibrary;
    util::Symbol libraryCategory;
    bool ant = false;
    bool common = false;
    bool junkPackage = false;
    bool reflectMarker = false;
  };

  [[nodiscard]] FrameInfo computeFrameInfo(std::string_view signature) const;

  const radar::LibraryCorpus& corpus_;
  vtsim::DomainCategorizer& domains_;
  core::AttributorConfig config_;
  /// The historical knobs, fixed by the mode.
  bool useCaptureIndex_ = false;
  bool memoizeFrames_ = false;
  /// Null in SeedMode::Seed (reference matchers).
  std::unique_ptr<const core::AttributionProgram> program_;
  std::unique_ptr<util::SymbolPool> pool_;
};

}  // namespace libspector::reference
