/**
 * @file
 * Strict numeric command-line values.
 *
 * `std::atoi("-1")` cast to size_t is SIZE_MAX, `"70000"` cast to a
 * uint16_t port is 4464, and `atoll("abc")` is 0 — every one of them
 * silently. parseNumber() accepts a token only when std::from_chars
 * consumes all of it and the value lies in [lo, hi]; callers print
 * their usage and exit 2 when it refuses.
 */

#ifndef EFTVQA_COMMON_CLI_NUMBER_HPP
#define EFTVQA_COMMON_CLI_NUMBER_HPP

#include <charconv>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace eftvqa {

/** Parse @p token into @p out. False, with @p out untouched, when the
 *  token is empty, not a number of type T (a sign on an unsigned T
 *  included), has trailing characters, or lies outside [@p lo, @p hi]
 *  (NaN included). */
template <class T>
bool
parseNumber(std::string_view token, T &out, std::type_identity_t<T> lo,
            std::type_identity_t<T> hi)
{
    T value{};
    const char *last = token.data() + token.size();
    const auto [end, ec] = std::from_chars(token.data(), last, value);
    if (token.empty() || ec != std::errc() || end != last ||
        !(value >= lo && value <= hi))
        return false;
    out = value;
    return true;
}

} // namespace eftvqa

#endif // EFTVQA_COMMON_CLI_NUMBER_HPP
