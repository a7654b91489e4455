#include "rt/program.hpp"

#include <stdexcept>
#include <string>

#include "dex/type_signature.hpp"

namespace libspector::rt {

MethodId AppProgram::addMethod(std::string_view signature,
                               std::vector<Action> body) {
  const auto view = dex::parseSignatureView(signature);
  if (!view)
    throw std::invalid_argument("AppProgram: bad signature " +
                                std::string(signature));
  const auto signatureRef = names_.append(signature);
  const auto frameRef = names_.append(
      view->frameNameSize(), [&](char* out) { view->writeFrameName(out); });
  methods_.push_back({signatureRef, frameRef, std::move(body)});
  return static_cast<MethodId>(methods_.size() - 1);
}

}  // namespace libspector::rt
