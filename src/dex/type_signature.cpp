#include "dex/type_signature.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace libspector::dex {

namespace {

/// Consume one smali type descriptor starting at `pos`; returns the position
/// past it, or npos on malformed input.
std::size_t consumeDescriptor(std::string_view body, std::size_t pos) {
  while (pos < body.size() && body[pos] == '[') ++pos;  // array dimensions
  if (pos >= body.size()) return std::string_view::npos;
  switch (body[pos]) {
    case 'V': case 'Z': case 'B': case 'S': case 'C':
    case 'I': case 'J': case 'F': case 'D':
      return pos + 1;
    case 'L': {
      const std::size_t end = body.find(';', pos);
      if (end == std::string_view::npos) return std::string_view::npos;
      return end + 1;
    }
    default:
      return std::string_view::npos;
  }
}

std::string slashToDot(std::string_view s) {
  std::string out(s);
  std::replace(out.begin(), out.end(), '/', '.');
  return out;
}

std::string dotToSlash(std::string_view s) {
  std::string out(s);
  std::replace(out.begin(), out.end(), '.', '/');
  return out;
}

}  // namespace

std::optional<std::vector<std::string>> splitTypeDescriptors(
    std::string_view body) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < body.size()) {
    const std::size_t end = consumeDescriptor(body, pos);
    if (end == std::string_view::npos) return std::nullopt;
    out.emplace_back(body.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

namespace {

/// Structural split shared by parse() and parseSignatureView(): locates the
/// class/name/param/return components and validates everything that does not
/// require materializing the parameter list.
struct SignatureParts {
  std::string_view classPart;
  std::string_view name;
  std::string_view paramBody;
  std::string_view retBody;
};

std::optional<SignatureParts> splitSignature(std::string_view smali) noexcept {
  // Lpkg/Class;->name(params)ret
  if (smali.empty() || smali.front() != 'L') return std::nullopt;
  const std::size_t arrow = smali.find(";->");
  if (arrow == std::string_view::npos) return std::nullopt;
  SignatureParts parts;
  parts.classPart = smali.substr(1, arrow - 1);
  if (parts.classPart.empty()) return std::nullopt;

  const std::size_t pos = arrow + 3;
  const std::size_t paren = smali.find('(', pos);
  if (paren == std::string_view::npos || paren == pos) return std::nullopt;
  parts.name = smali.substr(pos, paren - pos);

  const std::size_t closeParen = smali.find(')', paren);
  if (closeParen == std::string_view::npos) return std::nullopt;
  parts.paramBody = smali.substr(paren + 1, closeParen - paren - 1);

  parts.retBody = smali.substr(closeParen + 1);
  if (parts.retBody.empty()) return std::nullopt;
  if (consumeDescriptor(parts.retBody, 0) != parts.retBody.size())
    return std::nullopt;
  return parts;
}

/// Validate a parameter list body without allocating the descriptor vector.
bool validTypeDescriptors(std::string_view body) noexcept {
  std::size_t pos = 0;
  while (pos < body.size()) {
    pos = consumeDescriptor(body, pos);
    if (pos == std::string_view::npos) return false;
  }
  return true;
}

}  // namespace

std::optional<TypeSignature> TypeSignature::parse(std::string_view smali) {
  const auto parts = splitSignature(smali);
  if (!parts) return std::nullopt;
  auto params = splitTypeDescriptors(parts->paramBody);
  if (!params) return std::nullopt;
  return TypeSignature(slashToDot(parts->classPart), std::string(parts->name),
                       std::move(*params), std::string(parts->retBody));
}

std::optional<SignatureView> parseSignatureView(std::string_view smali) noexcept {
  const auto parts = splitSignature(smali);
  if (!parts || !validTypeDescriptors(parts->paramBody)) return std::nullopt;
  return SignatureView{parts->classPart, parts->name};
}

std::string SignatureView::frameName() const {
  std::string out(frameNameSize(), '\0');
  writeFrameName(out.data());
  return out;
}

void SignatureView::writeFrameName(char* out) const noexcept {
  for (const char c : slashedClass) *out++ = c == '/' ? '.' : c;
  *out++ = '.';
  methodName.copy(out, methodName.size());
}

TypeSignature::TypeSignature(std::string dottedClass, std::string methodName,
                             std::vector<std::string> paramTypes,
                             std::string returnType)
    : dottedClass_(std::move(dottedClass)),
      methodName_(std::move(methodName)),
      paramTypes_(std::move(paramTypes)),
      returnType_(std::move(returnType)) {}

std::string TypeSignature::smali() const {
  std::string out = "L" + dotToSlash(dottedClass_) + ";->" + methodName_ + "(";
  for (const auto& p : paramTypes_) out += p;
  out += ")" + returnType_;
  return out;
}

std::string TypeSignature::packagePath() const {
  const std::size_t lastDot = dottedClass_.rfind('.');
  if (lastDot == std::string::npos) return {};
  return dottedClass_.substr(0, lastDot);
}

std::string TypeSignature::frameName() const {
  return dottedClass_ + "." + methodName_;
}

std::string packageOfFrameName(std::string_view frame) {
  // Strip method name, then class name.
  std::size_t dot = frame.rfind('.');
  if (dot == std::string_view::npos) return {};
  frame = frame.substr(0, dot);
  dot = frame.rfind('.');
  if (dot == std::string_view::npos) return {};
  return std::string(frame.substr(0, dot));
}

}  // namespace libspector::dex
