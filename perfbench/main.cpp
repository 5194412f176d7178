/**
 * @file
 * perfbench — the repository benchmark executable (perfbench/run.py
 * builds and drives it).
 *
 *   perfbench --workload dm_vqe|tableau_sweep|daemon_mix --seed N
 *             --seconds S --trace 0|1 --threads T --workdir DIR
 *   perfbench --self-test
 *
 * Prints every metric it measured as "metric <name> <value> <unit>
 * n=<samples>", the environment and every per-unit value, and as its
 * last line one JSON object {"report": {...}}. Exits 1 when an output
 * check failed, 2 on bad usage.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

int
usage()
{
    std::cerr << "usage: perfbench --workload dm_vqe|tableau_sweep|daemon_mix "
                 "--seed N --seconds S --trace 0|1 --threads T --workdir DIR\n"
                 "       perfbench --self-test\n";
    return 2;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
print(const Report &report, std::ostream &os)
{
    for (const auto &[k, v] : report.env)
        os << "env " << k << " " << v << "\n";
    for (const auto &[name, m] : report.metrics)
        os << "metric " << name << " " << number(m.value) << " " << m.unit
           << " n=" << m.samples << "\n";
    for (const auto &[name, values] : report.runs) {
        os << "runs " << name;
        for (double v : values)
            os << " " << number(v);
        os << "\n";
    }
    for (const std::string &f : report.failures)
        os << "FAILED " << f << "\n";

    std::ostringstream js;
    js << "{\"report\": {\"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
    const char *sep = "";
    for (const auto &[name, m] : report.metrics) {
        js << sep << quoted(name) << ": {\"value\": " << number(m.value)
           << ", \"unit\": " << quoted(m.unit) << ", \"samples\": " << m.samples
           << "}";
        sep = ", ";
    }
    js << "}, \"env\": {";
    sep = "";
    for (const auto &[k, v] : report.env) {
        js << sep << quoted(k) << ": " << quoted(v);
        sep = ", ";
    }
    js << "}, \"failures\": [";
    sep = "";
    for (const std::string &f : report.failures) {
        js << sep << quoted(f);
        sep = ", ";
    }
    js << "]}}";
    os << js.str() << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig config;
    std::string workload;
    bool self_test_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--self-test") {
            self_test_only = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                workload = value;
            else if (flag == "--seed")
                config.seed = std::stoull(value);
            else if (flag == "--seconds")
                config.seconds = std::stod(value);
            else if (flag == "--trace")
                config.trace = value == "1";
            else if (flag == "--threads")
                config.threads = std::stoul(value);
            else if (flag == "--workdir")
                config.workdir = value;
            else
                return usage();
        } catch (const std::exception &) {
            return usage();
        }
    }

    const std::vector<std::string> self_test = selfTest();
    for (const std::string &f : self_test)
        std::cerr << "self-test failed: " << f << "\n";
    if (self_test_only)
        return self_test.empty() ? 0 : 1;
    if (config.workdir.empty() || config.threads == 0 || config.seconds <= 0)
        return usage();

    Report (*run)(const RunConfig &) = nullptr;
    if (workload == "dm_vqe")
        run = runDmVqe;
    else if (workload == "tableau_sweep")
        run = runTableauSweep;
    else if (workload == "daemon_mix")
        run = runDaemonMix;
    else
        return usage();

    const long long steal0 = stealTicks();
    Report report;
    try {
        report = run(config);
    } catch (const std::exception &e) {
        std::cerr << "perfbench " << workload << ": " << e.what() << "\n";
        return 1;
    }
    for (const std::string &f : self_test)
        report.check(false, "harness self-test: " + f);
    report.check(true, "harness self-test");
    const long long steal1 = stealTicks();
    recordEnvironment(report, config);
    report.env["workload"] = workload;
    report.env["seed"] = std::to_string(config.seed);
    report.env["trace"] = config.trace ? "1" : "0";
    report.env["steal_ticks"] =
        steal0 < 0 || steal1 < 0 ? "unreadable" : std::to_string(steal1 - steal0);
    report.set("failed_ratio",
               ratio(static_cast<double>(report.failed),
                     static_cast<double>(report.attempted)),
               "ratio", report.attempted);
    print(report, std::cout);
    return report.failed == 0 ? 0 : 1;
}
