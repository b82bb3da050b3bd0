// Small string helpers used across the front end and annotation parser.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace safeflow::support {

/// Transparent string hash: with std::equal_to<> it lets an unordered
/// container keyed by std::string be searched by string_view without
/// building a std::string.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Hash map from owned strings, searchable by string_view.
template <typename V>
using StringMap =
    std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

[[nodiscard]] std::string_view trim(std::string_view s);
[[nodiscard]] bool startsWith(std::string_view s, std::string_view prefix);
[[nodiscard]] bool endsWith(std::string_view s, std::string_view suffix);
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  char sep);
/// Joins parts with the separator; empty input yields "".
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

}  // namespace safeflow::support
