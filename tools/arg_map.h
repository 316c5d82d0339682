#pragma once

// `--flag[=value]` parsing shared by the command-line tools.

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

namespace levy::tools {

/// The arguments from `argv[first]` on, each `--key` or `--key=value` with
/// `key` one of `flags` (the flags the command takes); a repeated key keeps
/// its last value. Anything else throws std::invalid_argument, so a
/// misspelled flag stops the command instead of being ignored.
class arg_map {
public:
    arg_map(int argc, char** argv, int first, std::initializer_list<std::string_view> flags) {
        for (int i = first; i < argc; ++i) {
            const std::string_view arg = argv[i];
            if (arg.substr(0, 2) != "--") {
                throw std::invalid_argument("expected --flag[=value], got: " + std::string(arg));
            }
            const auto eq = arg.find('=');
            const std::string_view key = arg.substr(2, eq - 2);
            if (std::find(flags.begin(), flags.end(), key) == flags.end()) {
                throw std::invalid_argument("unknown flag: --" + std::string(key));
            }
            values_[std::string(key)] =
                eq == std::string_view::npos ? std::string() : std::string(arg.substr(eq + 1));
        }
    }

    [[nodiscard]] bool has(const std::string& key) const { return values_.contains(key); }

    /// The raw value of `--key`, or `fallback` when it is absent.
    [[nodiscard]] std::string text(const std::string& key, const std::string& fallback) const {
        const auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    /// `--key` parsed whole as a T, or `fallback` when it is absent; a value
    /// that does not parse throws std::invalid_argument.
    template <class T>
    [[nodiscard]] T get(const std::string& key, T fallback) const {
        const auto it = values_.find(key);
        if (it == values_.end()) return fallback;
        T value{};
        const auto& text = it->second;
        const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
        if (ec != std::errc{} || ptr != text.data() + text.size()) {
            throw std::invalid_argument("bad value for --" + key + ": " + text);
        }
        return value;
    }

private:
    std::map<std::string, std::string> values_;
};

}  // namespace levy::tools
