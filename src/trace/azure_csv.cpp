#include "trace/azure_csv.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/csv.hpp"
#include "common/rng.hpp"

namespace codecrunch::trace {

void
AzureCsv::writeInvocationCounts(const Workload& workload,
                                const std::string& path)
{
    const std::size_t minutes = static_cast<std::size_t>(
        std::ceil(workload.duration / kSecondsPerMinute));
    // Dense count matrix; traces here are small enough (<= millions of
    // cells) that simplicity beats a sparse encoding.
    std::vector<std::vector<std::uint32_t>> counts(
        workload.functions.size(),
        std::vector<std::uint32_t>(minutes, 0));
    for (const auto& inv : workload.invocations) {
        const std::size_t minute = std::min(
            minutes - 1,
            static_cast<std::size_t>(inv.arrival / kSecondsPerMinute));
        ++counts[inv.function][minute];
    }

    CsvWriter out(path);
    CsvRow header = {"function_id", "name"};
    for (std::size_t m = 0; m < minutes; ++m) {
        // Appending instead of "m" + to_string(m) sidesteps GCC 12's
        // -Wrestrict false positive on the inlined concatenation.
        std::string column = "m";
        column += std::to_string(m);
        header.push_back(std::move(column));
    }
    out.writeRow(header);
    for (const auto& f : workload.functions) {
        CsvRow row = {std::to_string(f.id), f.name};
        for (std::size_t m = 0; m < minutes; ++m)
            row.push_back(std::to_string(counts[f.id][m]));
        out.writeRow(row);
    }
}

void
AzureCsv::writeProfiles(const Workload& workload,
                        const std::string& path)
{
    CsvWriter out(path);
    out.writeRow({"function_id", "name", "catalog_index", "memory_mb",
                  "image_mb", "compressed_mb", "compress_ratio",
                  "exec_x86_s", "exec_arm_s", "cold_x86_s", "cold_arm_s",
                  "decompress_x86_s", "decompress_arm_s",
                  "compress_x86_s", "compress_arm_s",
                  "compressibility"});
    for (const auto& f : workload.functions) {
        out.writeFields(
            f.id, f.name, f.catalogIndex, f.memoryMb, f.imageMb,
            f.compressedMb, f.compressRatio,
            f.exec[0], f.exec[1], f.coldStart[0], f.coldStart[1],
            f.decompress[0], f.decompress[1],
            f.compressTime[0], f.compressTime[1], f.compressibility);
    }
}

Workload
AzureCsv::read(const std::string& countsPath,
               const std::string& profilesPath, std::uint64_t seed)
{
    Workload workload;

    const auto profileLines = CsvReader::readFileNumbered(profilesPath);
    if (profileLines.empty())
        fatal("AzureCsv: empty profiles file '", profilesPath, "'");
    for (std::size_t r = 1; r < profileLines.size(); ++r) {
        const CsvLine& line = profileLines[r];
        CsvReader::requireFields(line, 16, profilesPath);
        const auto& row = line.fields;
        // Column helpers carry file:line:column into every message.
        const auto u64 = [&](std::size_t c) {
            return CsvReader::parseU64(row[c], profilesPath,
                                       line.number, c + 1);
        };
        const auto num = [&](std::size_t c) {
            return CsvReader::parseDouble(row[c], profilesPath,
                                          line.number, c + 1);
        };
        FunctionProfile f;
        const std::uint64_t rawId = u64(0);
        if (rawId >= kInvalidFunction)
            fatal("AzureCsv: ", profilesPath, ":", line.number,
                  ": column 1: function id ", rawId,
                  " overflows 32-bit FunctionId");
        f.id = static_cast<FunctionId>(rawId);
        f.name = row[1];
        f.catalogIndex = static_cast<std::size_t>(u64(2));
        f.memoryMb = num(3);
        f.imageMb = num(4);
        f.compressedMb = num(5);
        f.compressRatio = num(6);
        f.exec[0] = num(7);
        f.exec[1] = num(8);
        f.coldStart[0] = num(9);
        f.coldStart[1] = num(10);
        f.decompress[0] = num(11);
        f.decompress[1] = num(12);
        f.compressTime[0] = num(13);
        f.compressTime[1] = num(14);
        f.compressibility = num(15);
        if (f.id != workload.functions.size())
            fatal("AzureCsv: ", profilesPath, ":", line.number,
                  ": non-dense function id ", f.id, ", expected ",
                  workload.functions.size());
        workload.functions.push_back(std::move(f));
    }

    const auto countLines = CsvReader::readFileNumbered(countsPath);
    if (countLines.empty())
        fatal("AzureCsv: empty counts file '", countsPath, "'");
    if (countLines[0].fields.size() < 3)
        fatal("AzureCsv: ", countsPath, ":", countLines[0].number,
              ": header needs at least one minute column");
    const std::size_t minutes = countLines[0].fields.size() - 2;
    // Minute columns are positional, so a reordered (or mislabeled)
    // header silently shifts every arrival. Reject out-of-order
    // minute columns up front.
    for (std::size_t m = 0; m < minutes; ++m) {
        std::string expected = "m";
        expected += std::to_string(m);
        if (countLines[0].fields[m + 2] != expected)
            fatal("AzureCsv: ", countsPath, ":", countLines[0].number,
                  ": column ", m + 3, ": out-of-order minute column '",
                  countLines[0].fields[m + 2], "', expected '",
                  expected, "'");
    }
    workload.duration =
        static_cast<Seconds>(minutes) * kSecondsPerMinute;

    Rng rng(seed);
    std::vector<bool> seen(workload.functions.size(), false);
    for (std::size_t r = 1; r < countLines.size(); ++r) {
        const CsvLine& line = countLines[r];
        const auto& row = line.fields;
        if (row.size() != minutes + 2)
            fatal("AzureCsv: ", countsPath, ":", line.number,
                  ": ragged row with ", row.size(),
                  " fields, expected ", minutes + 2);
        const std::uint64_t rawId =
            CsvReader::parseU64(row[0], countsPath, line.number, 1);
        if (rawId >= workload.functions.size())
            fatal("AzureCsv: ", countsPath, ":", line.number,
                  ": counts refer to unknown function ", rawId);
        const FunctionId id = static_cast<FunctionId>(rawId);
        if (seen[id])
            fatal("AzureCsv: ", countsPath, ":", line.number,
                  ": column 1: duplicate function id ", id);
        seen[id] = true;
        for (std::size_t m = 0; m < minutes; ++m) {
            const std::uint64_t count = CsvReader::parseU64(
                row[m + 2], countsPath, line.number, m + 3);
            // A corrupt cell (e.g. 2^32-scale garbage) would try to
            // materialize billions of invocations; no real trace
            // minute comes near this.
            if (count > kMaxInvocationsPerMinute)
                fatal("AzureCsv: ", countsPath, ":", line.number,
                      ": column ", m + 3, ": invocation count ",
                      count, " exceeds per-minute sanity cap ",
                      kMaxInvocationsPerMinute);
            for (std::uint64_t k = 0; k < count; ++k) {
                const Seconds arrival =
                    (static_cast<double>(m) + rng.uniform()) *
                    kSecondsPerMinute;
                workload.invocations.push_back({id, arrival, 1.0});
            }
        }
    }

    std::sort(workload.invocations.begin(), workload.invocations.end(),
              [](const Invocation& a, const Invocation& b) {
                  if (a.arrival != b.arrival)
                      return a.arrival < b.arrival;
                  return a.function < b.function;
              });
    return workload;
}

} // namespace codecrunch::trace
