/**
 * @file
 * vqad — the experiment service daemon binary.
 *
 * Thin shell around serve::Daemon: parse flags, install the SIGTERM/
 * SIGINT self-pipe, run until a signal arrives, then drain gracefully
 * (stop admitting, answer every in-flight cell, exit 0). Usage:
 *
 *   vqad --socket /tmp/vqad.sock [--tcp <port>] [--workers <n>]
 *        [--max-pending <n>] [--quota <n>] [--cell-timeout <ms>]
 *        [--store <store.bin>]
 *
 * Numeric values must be plain in-range numbers (--tcp 0..65535,
 * --workers 0..4096, --max-pending/--quota 1..2^20, --cell-timeout
 * 0..1e9 ms); anything else prints the usage and exits 2. --store
 * must name a binary sweep store (or a fresh path).
 */

#include <csignal>
#include <iostream>
#include <string>

#include <unistd.h>

#include "common/cli_number.hpp"
#include "serve/daemon.hpp"

namespace {

int g_signal_pipe[2] = {-1, -1};

void
onSignal(int)
{
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = write(g_signal_pipe[1], &byte, 1);
}

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --socket <path> [--tcp <port>] [--workers <n>]\n"
                 "            [--max-pending <n>] [--quota <n>] "
                 "[--cell-timeout <ms>] "
                 "[--store <path>]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace eftvqa;

    serve::ServeConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        // Every numeric flag is strict: a negative, garbage, trailing-
        // junk or out-of-range value is a usage error, never a cast.
        bool ok = true;
        if (arg == "--socket" && has_value) {
            config.socket_path = argv[++i];
        } else if (arg == "--tcp" && has_value) {
            ok = parseNumber(argv[++i], config.tcp_port, 0, 65535);
        } else if (arg == "--workers" && has_value) {
            ok = parseNumber(argv[++i], config.workers, 0, 4096);
        } else if (arg == "--max-pending" && has_value) {
            ok = parseNumber(argv[++i], config.max_pending, 1,
                             size_t{1} << 20);
        } else if (arg == "--quota" && has_value) {
            ok = parseNumber(argv[++i], config.per_client_inflight, 1,
                             size_t{1} << 20);
        } else if (arg == "--cell-timeout" && has_value) {
            ok = parseNumber(argv[++i], config.cell_timeout_ms, 0.0,
                             1e9);
        } else if (arg == "--store" && has_value) {
            config.store_path = argv[++i];
        } else {
            ok = false;
        }
        if (!ok)
            return usage(argv[0]);
    }
    if (config.socket_path.empty())
        return usage(argv[0]);

    if (pipe(g_signal_pipe) != 0) {
        std::cerr << "vqad: cannot create the signal pipe\n";
        return 1;
    }

    try {
        serve::Daemon daemon(config, serve::WorkloadCatalog::builtin());

        struct sigaction sa = {};
        sa.sa_handler = onSignal;
        sigaction(SIGTERM, &sa, nullptr);
        sigaction(SIGINT, &sa, nullptr);

        std::cout << "vqad: serving on " << config.socket_path;
        if (daemon.tcpPort() != 0)
            std::cout << " and 127.0.0.1:" << daemon.tcpPort();
        std::cout << std::endl;

        // Park until SIGTERM/SIGINT lands on the self-pipe.
        char byte = 0;
        while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
        }

        std::cout << "vqad: draining..." << std::endl;
        daemon.beginDrain();
        daemon.waitDrained();
        const serve::DaemonStats stats = daemon.stats();
        daemon.stop();
        std::cout << "vqad: drained clean (completed "
                  << stats.cells_completed << ", coalesced "
                  << stats.cells_coalesced << ", cancelled "
                  << stats.cells_cancelled << ", failed "
                  << stats.cells_failed << ")" << std::endl;
    } catch (const std::exception &e) {
        std::cerr << "vqad: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
