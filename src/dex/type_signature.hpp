// Smali method type signatures (paper §III-C, footnote 1).
//
// A type signature is the unique identifier of a method inside an apk:
//   Lpackage/name/className$innerClassName;->methodName(inputTypes)returnType
// e.g. Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/String;)Ljava/lang/Object;
//
// The Socket Supervisor translates stack frames into type signatures so the
// offline pipeline can distinguish overloaded variants of a method and
// extract the package hierarchy the attribution heuristics operate on.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace libspector::dex {

/// A parsed smali method type signature.
class TypeSignature {
 public:
  /// Parse a smali signature; returns std::nullopt on malformed input.
  [[nodiscard]] static std::optional<TypeSignature> parse(std::string_view smali);

  /// Build from components. `dottedClass` is e.g. "com.foo.Bar$Inner";
  /// parameter and return types are smali type descriptors ("I", "[B",
  /// "Ljava/lang/String;", ...).
  TypeSignature(std::string dottedClass, std::string methodName,
                std::vector<std::string> paramTypes, std::string returnType);

  /// Render back to the smali form.
  [[nodiscard]] std::string smali() const;

  /// "com.foo.Bar$Inner" — fully qualified class including inner classes.
  [[nodiscard]] const std::string& dottedClass() const noexcept { return dottedClass_; }

  /// "com.foo" — package path (class name and inner classes stripped).
  [[nodiscard]] std::string packagePath() const;

  /// "com.foo.Bar$Inner.method" — the form a Java stack-trace frame prints.
  [[nodiscard]] std::string frameName() const;

  [[nodiscard]] const std::string& methodName() const noexcept { return methodName_; }
  [[nodiscard]] const std::vector<std::string>& paramTypes() const noexcept {
    return paramTypes_;
  }
  [[nodiscard]] const std::string& returnType() const noexcept { return returnType_; }

  [[nodiscard]] bool operator==(const TypeSignature&) const = default;

 private:
  std::string dottedClass_;
  std::string methodName_;
  std::vector<std::string> paramTypes_;
  std::string returnType_;
};

/// Zero-allocation structural view of a smali signature: the slash-separated
/// class part and the method name, pointing into the input. Validated with
/// exactly TypeSignature::parse's rules (same inputs succeed and fail), but
/// without materializing any component — the attribution hot path uses this
/// to filter built-in frames and derive packages with no heap traffic.
struct SignatureView {
  std::string_view slashedClass;  // "com/unity3d/ads/android/cache/b"
  std::string_view methodName;    // "doInBackground"

  /// "com.unity3d.ads.android.cache.b.doInBackground", built in one
  /// allocation; equal to TypeSignature::frameName() of the same input.
  [[nodiscard]] std::string frameName() const;
  /// Length of frameName().
  [[nodiscard]] std::size_t frameNameSize() const noexcept {
    return slashedClass.size() + 1 + methodName.size();
  }
  /// Writes frameName()'s frameNameSize() characters to `out`, so a caller
  /// with its own buffer (a string arena) builds it with no temporary.
  void writeFrameName(char* out) const noexcept;
};

/// Parse `smali` into a SignatureView; std::nullopt on malformed input
/// (accepts and rejects exactly what TypeSignature::parse does).
[[nodiscard]] std::optional<SignatureView> parseSignatureView(
    std::string_view smali) noexcept;

/// Split a smali parameter list body ("[Ljava/lang/String;IZ") into
/// individual type descriptors. Returns std::nullopt on malformed input.
[[nodiscard]] std::optional<std::vector<std::string>> splitTypeDescriptors(
    std::string_view body);

/// Extract the package path from a frame name such as
/// "com.unity3d.ads.android.cache.b.doInBackground". The last component is
/// the method, the one before it the class; everything earlier is the
/// package. Heuristic used by the offline pipeline when a full signature is
/// unavailable.
[[nodiscard]] std::string packageOfFrameName(std::string_view frame);

}  // namespace libspector::dex
