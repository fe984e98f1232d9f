/**
 * @file
 * Tiny flag parser and top-level exception handler shared by the
 * command-line tools.
 */

#ifndef EDDIE_TOOLS_TOOL_UTIL_H
#define EDDIE_TOOLS_TOOL_UTIL_H

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

namespace eddie::tools
{

/** A malformed command line, such as an undeclared flag or a
 *  non-numeric value for a numeric option; runTool() reports it and
 *  exits with code 2. */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Runs a tool's body, turning any escaped exception — a corrupt model
 * file, an unknown workload, a failed write — into a one-line stderr
 * message and exit code 1 instead of std::terminate; a UsageError
 * exits with 2. Bodies return their own exit codes (0 ok, 2 usage,
 * 3 anomalies reported).
 */
template <typename Body>
int
runTool(const char *tool, Body &&body)
{
    try {
        return body();
    } catch (const UsageError &e) {
        std::fprintf(stderr, "%s: usage error: %s\n", tool, e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: error: %s\n", tool, e.what());
    } catch (...) {
        std::fprintf(stderr, "%s: error: unknown exception\n", tool);
    }
    return 1;
}

/**
 * Positional arguments plus --key value / --flag options. A word after
 * an option is its value unless it starts with '-' and is not a
 * negative number, so `--offset -5` passes -5. Every option must be
 * one of the tool's declared @p flags (names without the dashes), or
 * the constructor throws UsageError: a mistyped or removed flag fails
 * instead of being ignored. Numeric getters accept only wholly
 * numeric values, and counts only non-negative ones, and throw
 * UsageError otherwise.
 */
class Args
{
  public:
    Args(int argc, char **argv, const std::vector<std::string> &flags)
    {
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            if (a.rfind("--", 0) == 0) {
                const std::string key = a.substr(2);
                if (std::find(flags.begin(), flags.end(), key) ==
                    flags.end())
                    throw UsageError("unknown option " + a);
                if (i + 1 < argc && isValue(argv[i + 1])) {
                    options_.emplace_back(key, argv[++i]);
                } else {
                    options_.emplace_back(key, "");
                }
            } else {
                positional_.push_back(a);
            }
        }
    }

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    bool has(const std::string &key) const { return find(key) != nullptr; }

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        const std::string *v = find(key);
        return v != nullptr ? *v : fallback;
    }

    /** Value of --key as a finite number; @p fallback when absent. */
    double
    getDouble(const std::string &key, double fallback) const
    {
        const std::string *v = find(key);
        if (v == nullptr)
            return fallback;
        char *end = nullptr;
        errno = 0;
        const double out = std::strtod(v->c_str(), &end);
        if (!wholeParse(*v, end) || !std::isfinite(out))
            throw UsageError("--" + key + ": '" + *v +
                             "' is not a number");
        return out;
    }

    /** Value of --key as a whole number; @p fallback when absent. */
    long
    getLong(const std::string &key, long fallback) const
    {
        const std::string *v = find(key);
        if (v == nullptr)
            return fallback;
        char *end = nullptr;
        errno = 0;
        const long out = std::strtol(v->c_str(), &end, 10);
        if (!wholeParse(*v, end))
            throw UsageError("--" + key + ": '" + *v +
                             "' is not a whole number");
        return out;
    }

    /**
     * Value of --key as a count (a whole number >= 0); @p fallback when
     * absent. A negative count is a UsageError instead of a cast that
     * wraps it to 2^64 - k. Seeds are hash inputs, not counts, and stay
     * on getLong.
     */
    std::size_t
    getCount(const std::string &key, std::size_t fallback) const
    {
        if (find(key) == nullptr)
            return fallback;
        const long out = getLong(key, 0);
        if (out < 0)
            throw UsageError("--" + key + ": '" + *find(key) +
                             "' is not a count (negative)");
        return std::size_t(out);
    }

  private:
    static bool
    isValue(const char *a)
    {
        const auto digit = [](char c) {
            return std::isdigit(static_cast<unsigned char>(c)) != 0;
        };
        return a[0] != '-' || digit(a[1]) || (a[1] == '.' && digit(a[2]));
    }

    /** strtol/strtod consumed all of @p v, which is non-empty, does
     *  not start with blanks, and is in range. */
    static bool
    wholeParse(const std::string &v, const char *end)
    {
        return !v.empty() &&
            !std::isspace(static_cast<unsigned char>(v[0])) &&
            *end == '\0' && errno != ERANGE;
    }

    const std::string *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : options_)
            if (k == key)
                return &v;
        return nullptr;
    }

    std::vector<std::string> positional_;
    std::vector<std::pair<std::string, std::string>> options_;
};

} // namespace eddie::tools

#endif // EDDIE_TOOLS_TOOL_UTIL_H
