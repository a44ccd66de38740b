/**
 * @file
 * mgsp_perfbench: one run of one workload of the MGSP product
 * benchmark (see ../README.md). perfbench/run.py builds this binary,
 * runs it and selects the metrics of the run mode from its output.
 *
 *   mgsp_perfbench --workload oltp|overwrite|read_mostly --seed N
 *                  --seconds S --trace 0|1 [--stats-out FILE]
 *   mgsp_perfbench --self-test
 *
 * The last line of standard output is one JSON object: correct,
 * attempted, failed, writes (writing operations of the measured
 * phase) and every metric the run measured, as {value, unit}.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "%s\nusage: mgsp_perfbench --workload oltp|overwrite|"
                 "read_mostly --seed N --seconds S --trace 0|1 "
                 "[--stats-out FILE]\n       mgsp_perfbench --self-test\n",
                 why);
    return 2;
}

RunResult
runWorkload(const Options &opts)
{
    RunResult result = opts.workload == "oltp"        ? runOltp(opts)
                       : opts.workload == "overwrite" ? runOverwrite(opts)
                                                      : runReadMostly(opts);
    if (opts.trace) {
        probeMinidb(opts, result);
        runLayerProbes(opts, result);
    }
    return result;
}

void
printResult(const RunResult &r)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"writes\": %llu, \"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.writes));
    bool first = true;
    for (const auto &[name, m] : r.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/**
 * Runs each workload once clean (must pass) and once per planted
 * wrong byte (each must fail its check). Exit 0 iff all behave.
 */
int
selfTest()
{
    struct Case
    {
        const char *workload;
        const char *check;
        const char *where;
    };
    const Case cases[] = {
        {"overwrite", "", ""},
        {"overwrite", "read", "model"},
        {"overwrite", "read", "image"},
        {"overwrite", "restart", "model"},
        {"overwrite", "restart", "image"},
        {"overwrite", "durability", "model"},
        {"overwrite", "durability", "image"},
        {"read_mostly", "", ""},
        {"read_mostly", "read", "model"},
        {"read_mostly", "read", "image"},
        {"read_mostly", "restart", "model"},
        {"read_mostly", "restart", "image"},
        {"read_mostly", "durability", "model"},
        {"read_mostly", "durability", "image"},
        {"oltp", "", ""},
        {"oltp", "live", "model"},
        {"oltp", "restart", "model"},
        {"oltp", "restart", "image"},
        {"oltp", "durability", "model"},
        {"oltp", "durability", "image"},
    };
    int bad = 0;
    for (const Case &c : cases) {
        Options opts;
        opts.workload = c.workload;
        opts.seed = 7;
        opts.seconds = 0.3;
        opts.plantCheck = c.check;
        opts.plantWhere = c.where;
        const bool planted = c.check[0] != '\0';
        std::fprintf(stderr, "--- %s %s.%s\n", c.workload,
                     planted ? c.check : "clean", planted ? c.where : "run");
        const RunResult r = runWorkload(opts);
        const bool ok = planted ? !r.correct : r.correct;
        std::printf("self-test %-11s %-10s %-5s: %s\n", c.workload,
                    planted ? c.check : "clean", planted ? c.where : "-",
                    !ok ? "WRONG"
                    : planted ? "detected"
                              : "passes");
        std::fflush(stdout);
        bad += ok ? 0 : 1;
    }
    std::printf("self-test: %s\n", bad == 0 ? "all checks behave" : "FAILED");
    return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    processStart();
    // A fixed threshold keeps glibc from raising it as large sample
    // buffers are freed; those buffers then go back to the system
    // instead of lingering in the heap, so dram_mib does not depend
    // on how the latency vectors happened to grow.
    mallopt(M_MMAP_THRESHOLD, 256 * 1024);
    Options opts;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test")
            return selfTest();
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opts.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(value, &end, 10);
            if (*end != '\0')
                return usage("--seed takes a whole number");
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(value, &end);
            if (*end != '\0' || !(opts.seconds > 0) || opts.seconds > 600)
                return usage("--seconds takes a number in (0, 600]");
        } else if (arg == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                return usage("--trace takes 0 or 1");
            opts.trace = value[0] == '1';
        } else if (arg == "--stats-out") {
            opts.statsOut = value;
        } else {
            return usage(("unknown flag " + arg).c_str());
        }
    }
    if (!have_workload || (opts.workload != "oltp" &&
                           opts.workload != "overwrite" &&
                           opts.workload != "read_mostly"))
        return usage("--workload must be oltp, overwrite or read_mostly");
    printResult(runWorkload(opts));
    return 0;
}
