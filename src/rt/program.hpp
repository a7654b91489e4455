// An executable app: the reachable call graph behind an apk.
//
// The apk's dex files list *all* method signatures (tens of thousands);
// the AppProgram holds bodies only for the methods the app can actually
// reach at runtime — UI handlers, their callees, async tasks.  The gap
// between the two is what method coverage (paper §IV-C) measures.
//
// Like a dex file, the program keeps every method's signature and frame
// name in one append-only string arena of its own (DESIGN.md §9): it owns
// all its strings, so it needs no apk, and a copy or move of it carries
// them along. The views signature() and frameName() hand out are valid
// while the program lives and no method is added.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "rt/action.hpp"
#include "util/string_arena.hpp"

namespace libspector::rt {

struct AppProgram {
  /// Run once when the app starts (Activity.onCreate analogue).
  std::optional<MethodId> onCreate;
  /// Entry points the monkey can hit with UI events.
  std::vector<MethodId> uiHandlers;
  /// Tasks the app schedules after being sent to background (analytics
  /// flushes, ad prefetch): Rosen et al. observe most background traffic
  /// lands within the first minute.
  std::vector<MethodId> backgroundTasks;

  /// Append a method (its full smali type signature, which must also
  /// appear in the apk's dex files); returns its id. The frame name
  /// ("com.foo.Bar.baz") is derived from the signature (throws
  /// std::invalid_argument on a malformed signature). `signature` must not
  /// view this program's own arena.
  MethodId addMethod(std::string_view signature, std::vector<Action> body);

  [[nodiscard]] std::size_t methodCount() const noexcept {
    return methods_.size();
  }
  [[nodiscard]] std::string_view signature(MethodId id) const {
    return names_.view(methods_.at(id).signature);
  }
  [[nodiscard]] std::string_view frameName(MethodId id) const {
    return names_.view(methods_.at(id).frameName);
  }
  [[nodiscard]] const std::vector<Action>& body(MethodId id) const {
    return methods_.at(id).body;
  }

 private:
  struct Method {
    util::StringArena::Ref signature;
    util::StringArena::Ref frameName;
    std::vector<Action> body;
  };

  util::StringArena names_;
  std::vector<Method> methods_;
};

}  // namespace libspector::rt
