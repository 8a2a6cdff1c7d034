#include "common/flags.h"

#include <cstdio>
#include <cstdlib>

#include "common/logging.h"

namespace h2o::common {

void
Flags::defineInt(const std::string &name, int64_t def, const std::string &help)
{
    _specs[name] = Spec{Type::Int, std::to_string(def), help};
}

void
Flags::defineDouble(const std::string &name, double def,
                    const std::string &help)
{
    _specs[name] = Spec{Type::Double, std::to_string(def), help};
}

void
Flags::defineString(const std::string &name, const std::string &def,
                    const std::string &help)
{
    _specs[name] = Spec{Type::String, def, help};
}

void
Flags::defineBool(const std::string &name, bool def, const std::string &help)
{
    _specs[name] = Spec{Type::Bool, def ? "true" : "false", help};
}

void
Flags::printUsage(const char *argv0) const
{
    std::fprintf(stderr, "usage: %s [--flag=value ...]\n", argv0);
    for (const auto &[name, spec] : _specs) {
        std::fprintf(stderr, "  --%-24s %s (default: %s)\n", name.c_str(),
                     spec.help.c_str(), spec.value.c_str());
    }
}

void
Flags::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage(argv[0]);
            std::exit(0);
        }
        if (arg.rfind("--", 0) != 0)
            h2o_fatal("unexpected positional argument '", arg, "'");
        arg = arg.substr(2);
        std::string name, value;
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else {
            name = arg;
            auto it = _specs.find(name);
            if (it != _specs.end() && it->second.type == Type::Bool) {
                value = "true";
            } else if (i + 1 < argc) {
                value = argv[++i];
            } else {
                h2o_fatal("flag --", name, " is missing a value");
            }
        }
        auto it = _specs.find(name);
        if (it == _specs.end())
            h2o_fatal("unknown flag --", name);
        // Validate numeric flags eagerly so typos fail at parse time.
        if (it->second.type == Type::Int) {
            char *end = nullptr;
            (void)std::strtoll(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0')
                h2o_fatal("flag --", name, " expects an integer, got '",
                          value, "'");
        } else if (it->second.type == Type::Double) {
            char *end = nullptr;
            (void)std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0')
                h2o_fatal("flag --", name, " expects a number, got '", value,
                          "'");
        } else if (it->second.type == Type::Bool) {
            if (value != "true" && value != "false")
                h2o_fatal("flag --", name, " expects true/false, got '",
                          value, "'");
        }
        it->second.value = value;
    }
}

const Flags::Spec &
Flags::lookup(const std::string &name, Type type) const
{
    auto it = _specs.find(name);
    h2o_assert(it != _specs.end(), "flag --", name, " was never defined");
    h2o_assert(it->second.type == type, "flag --", name,
               " fetched with wrong type");
    return it->second;
}

int64_t
Flags::getInt(const std::string &name) const
{
    return std::strtoll(lookup(name, Type::Int).value.c_str(), nullptr, 10);
}

double
Flags::getDouble(const std::string &name) const
{
    return std::strtod(lookup(name, Type::Double).value.c_str(), nullptr);
}

std::string
Flags::getString(const std::string &name) const
{
    return lookup(name, Type::String).value;
}

bool
Flags::getBool(const std::string &name) const
{
    return lookup(name, Type::Bool).value == "true";
}

int64_t
threadsFlagDefault()
{
    const char *env = std::getenv("H2O_THREADS");
    if (!env || *env == '\0')
        return 0;
    char *end = nullptr;
    long long v = std::strtoll(env, &end, 10);
    if (end == env || *end != '\0' || v < 0) {
        warn("ignoring malformed H2O_THREADS='", env, "'");
        return 0;
    }
    return v;
}

void
defineThreadsFlag(Flags &flags)
{
    flags.defineInt("threads", threadsFlagDefault(),
                    "worker threads for shard evaluation (0 = one per "
                    "CPU this process may use; default from "
                    "H2O_THREADS)");
}

int64_t
procsFlagDefault()
{
    const char *env = std::getenv("H2O_PROCS");
    if (!env || *env == '\0')
        return 0;
    char *end = nullptr;
    long long v = std::strtoll(env, &end, 10);
    if (end == env || *end != '\0' || v < 0)
        h2o_fatal("malformed H2O_PROCS='", env,
                  "': expected a non-negative integer (0 = in-process, "
                  "N = N worker processes)");
    return v;
}

void
defineProcsFlag(Flags &flags)
{
    flags.defineInt("procs", procsFlagDefault(),
                    "worker processes for shard evaluation (0 = "
                    "in-process threads; default from H2O_PROCS)");
}

namespace {

/** Syntactic check of one worker-list entry: "local" or host:port with
 *  a nonempty host and a port in [1, 65535]. The authoritative parse
 *  (exec::parseWorkerList) applies the same rules; this copy keeps
 *  common/ free of an exec/ dependency. */
bool
validWorkerEntry(const std::string &entry)
{
    if (entry == "local")
        return true;
    size_t colon = entry.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= entry.size())
        return false;
    const std::string portStr = entry.substr(colon + 1);
    for (char c : portStr) {
        if (c < '0' || c > '9')
            return false;
    }
    char *end = nullptr;
    long long port = std::strtoll(portStr.c_str(), &end, 10);
    return end != portStr.c_str() && *end == '\0' && port >= 1 &&
           port <= 65535;
}

} // namespace

std::string
workersFlagDefault()
{
    const char *env = std::getenv("H2O_WORKERS");
    if (!env || *env == '\0')
        return "";
    const std::string csv(env);
    size_t start = 0;
    while (start <= csv.size()) {
        size_t comma = csv.find(',', start);
        const std::string entry = csv.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        if (!validWorkerEntry(entry))
            h2o_fatal("malformed H2O_WORKERS='", env, "': entry '", entry,
                      "' is not 'local' or host:port");
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return csv;
}

void
defineWorkersFlag(Flags &flags)
{
    flags.defineString("workers", workersFlagDefault(),
                       "comma-separated remote worker daemons for shard "
                       "evaluation ('host:port', or 'local' to fork a "
                       "loopback daemon); empty = none (default from "
                       "H2O_WORKERS)");
}

} // namespace h2o::common
