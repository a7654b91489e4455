// An append-only character arena: one buffer holding many strings.
//
// The dex class tables and the app program name every method through one
// of these instead of a std::string per name, the way a real dex file
// stores each string once in `string_ids` (DESIGN.md §9). A string is named
// by its Ref (offset and size), never by a pointer, so a Ref stays valid
// when the arena grows, is copied or is moved; a view() is valid until the
// next append to, move of or destruction of the arena it came from.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace libspector::util {

class StringArena {
 public:
  /// Where one string lives in its arena.
  struct Ref {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
  };

  /// Copies `s` to the end of the arena. `s` must not view this arena.
  Ref append(std::string_view s) {
    const Ref ref = grow(s.size());
    chars_.append(s);
    return ref;
  }

  /// Appends `size` characters written in place by `fill(char* out)`, so a
  /// derived string (a frame name from a signature) needs no temporary.
  template <typename Fill>
  Ref append(std::size_t size, Fill&& fill) {
    const Ref ref = grow(size);
    chars_.resize(chars_.size() + size);
    fill(chars_.data() + ref.offset);
    return ref;
  }

  [[nodiscard]] std::string_view view(Ref ref) const noexcept {
    return {chars_.data() + ref.offset, ref.size};
  }

  void reserve(std::size_t chars) { chars_.reserve(chars); }
  [[nodiscard]] std::size_t size() const noexcept { return chars_.size(); }

 private:
  Ref grow(std::size_t size) const {
    if (size > UINT32_MAX - chars_.size())
      throw std::length_error("StringArena: more than 4 GiB of strings");
    return {static_cast<std::uint32_t>(chars_.size()),
            static_cast<std::uint32_t>(size)};
  }

  std::string chars_;
};

}  // namespace libspector::util
