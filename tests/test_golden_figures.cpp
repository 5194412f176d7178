/**
 * @file
 * Golden outputs of the figure drivers.
 *
 * The density-matrix drivers fig13_density_matrix_gamma and
 * fig15_varsaw rerun with --smoke, and every energy field of their
 * --out JSON is compared with tests/data/fig13_smoke.json and
 * fig15_smoke.json to 1e-12 (other numbers to 1e-9 relative, strings
 * exactly). Those goldens were written by the gate-by-gate
 * density-matrix path, so they pin the fused superoperator stream to
 * it on every ISA and thread count the suite runs under.
 *
 * The tableau driver fig12_clifford_scale reruns with --smoke into a
 * fresh binary store, and every cell line of its `vqastore export`
 * must equal tests/data/fig12_smoke_store.json byte for byte: the
 * trajectory farm's energies are exact bits on every thread count.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

/** The flat sequence of ("key", raw value) pairs of a JSON document. */
std::vector<std::pair<std::string, std::string>>
jsonFields(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    std::vector<std::pair<std::string, std::string>> fields;
    size_t i = 0;
    while ((i = text.find('"', i)) != std::string::npos) {
        const size_t end = text.find('"', i + 1);
        const std::string key = text.substr(i + 1, end - i - 1);
        size_t j = end + 1;
        while (j < text.size() && text[j] == ' ')
            ++j;
        if (j >= text.size() || text[j] != ':') {
            i = end + 1; // a string value, consumed with its key
            continue;
        }
        ++j;
        while (j < text.size() && text[j] == ' ')
            ++j;
        if (text[j] == '[' || text[j] == '{') {
            i = j; // a container: its fields follow in order
            continue;
        }
        size_t k = j;
        if (text[j] == '"') {
            k = text.find('"', j + 1) + 1;
        } else {
            while (k < text.size() && text[k] != ',' && text[k] != '\n' &&
                   text[k] != '}')
                ++k;
        }
        fields.emplace_back(key, text.substr(j, k - j));
        i = k;
    }
    return fields;
}

void
expectMatchesGolden(const std::string &driver, const std::string &golden)
{
#ifndef EFTVQA_BENCH_DIR
    (void)driver;
    (void)golden;
    GTEST_SKIP() << "figure drivers not built (EFTVQA_BUILD_BENCH=OFF)";
#else
    const std::string out =
        testing::TempDir() + "golden_" + driver + ".json";
    const std::string cmd = std::string(EFTVQA_BENCH_DIR) + "/" + driver +
                            " --smoke --out " + out + " > /dev/null";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

    const auto want =
        jsonFields(std::string(EFTVQA_TEST_DATA_DIR) + "/" + golden);
    const auto got = jsonFields(out);
    ASSERT_FALSE(want.empty());
    ASSERT_EQ(want.size(), got.size());
    size_t energies = 0;
    for (size_t f = 0; f < want.size(); ++f) {
        const auto &[key, value] = want[f];
        ASSERT_EQ(key, got[f].first) << "field " << f;
        if (value.front() == '"') {
            EXPECT_EQ(value, got[f].second) << key;
            continue;
        }
        const double a = std::stod(value), b = std::stod(got[f].second);
        if (key == "e0" || key.rfind("e_", 0) == 0) {
            ++energies;
            EXPECT_NEAR(a, b, 1e-12) << key << " (field " << f << ")";
        } else {
            EXPECT_NEAR(a, b, 1e-9 * std::max(1.0, std::abs(a))) << key;
        }
    }
    EXPECT_GT(energies, 0u);
    std::remove(out.c_str());
#endif
}

/** The lines of @p path that hold one stored cell each. */
std::vector<std::string>
cellLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        if (line.find("\"key\":") != std::string::npos)
            lines.push_back(line);
    return lines;
}

} // namespace

TEST(GoldenFigures, Fig12SmokeStoreMatchesFixture)
{
#ifndef EFTVQA_BENCH_DIR
    GTEST_SKIP() << "figure drivers not built (EFTVQA_BUILD_BENCH=OFF)";
#else
    const std::string store = testing::TempDir() + "golden_fig12.bin";
    const std::string exported = testing::TempDir() + "golden_fig12.json";
    std::remove(store.c_str());
    const std::string run = std::string(EFTVQA_BENCH_DIR) +
                            "/fig12_clifford_scale --smoke --store " +
                            store + " > /dev/null";
    ASSERT_EQ(std::system(run.c_str()), 0) << run;
    const std::string dump = std::string(EFTVQA_VQASTORE) + " export " +
                             store + " " + exported + " > /dev/null";
    ASSERT_EQ(std::system(dump.c_str()), 0) << dump;

    const auto want = cellLines(std::string(EFTVQA_TEST_DATA_DIR) +
                                "/fig12_smoke_store.json");
    const auto got = cellLines(exported);
    ASSERT_FALSE(want.empty());
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(want[i], got[i]) << "cell line " << i;
    std::remove(store.c_str());
    std::remove(exported.c_str());
#endif
}

TEST(GoldenFigures, Fig13SmokeEnergiesMatch)
{
    expectMatchesGolden("fig13_density_matrix_gamma", "fig13_smoke.json");
}

TEST(GoldenFigures, Fig15SmokeEnergiesMatch)
{
    expectMatchesGolden("fig15_varsaw", "fig15_smoke.json");
}
