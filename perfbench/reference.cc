/**
 * @file
 * The reference output every rendered row is checked against, and the
 * metric list printer.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "perfbench.hh"

namespace perfbench
{

namespace
{

/** The string value of `"field":"..."` in a rendered row. */
std::string
stringField(const std::string &row, const std::string &field)
{
    const std::string tag = "\"" + field + "\":\"";
    const size_t at = row.find(tag);
    if (at == std::string::npos)
        return {};
    const size_t start = at + tag.size();
    const size_t end = row.find('"', start);
    return end == std::string::npos ? std::string{}
                                    : row.substr(start, end - start);
}

} // namespace

bool
Reference::load(const std::string &dir, std::string *error)
{
    const std::filesystem::path path =
        std::filesystem::path(dir) / "suite.jsonl";
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read " + path.string();
        return false;
    }
    for (std::string row; std::getline(in, row);) {
        const std::string key =
            rowKey(stringField(row, "workload"), stringField(row, "arch"),
                   stringField(row, "config"));
        rows_.emplace(key, row);
    }
    if (rows_.empty()) {
        *error = "empty reference " + path.string();
        return false;
    }
    return true;
}

bool
Reference::matches(const std::string &key, std::string_view row) const
{
    const auto it = rows_.find(key);
    return it != rows_.end() && it->second == row;
}

bool
writeReference(const std::string &dir, unsigned workers, std::string *error)
{
    namespace fs = std::filesystem;
    vgiw::ExperimentEngine engine{vgiw::EngineOptions{workers}};
    const auto results =
        engine.run(vgiw::ExperimentEngine::suiteJobs(vgiw::SystemConfig{}));
    for (const auto &r : results) {
        if (!r.ok() || !r.goldenPassed) {
            *error = "job failed: " + r.workload + " [" + r.arch +
                     "]: " + r.error;
            return false;
        }
    }
    RowBuffer buf;
    engine.resultTable().renderInto(buf);

    fs::create_directories(dir);
    const fs::path path = fs::path(dir) / "suite.jsonl";
    std::ofstream out(path, std::ios::binary);
    out << buf.text();
    out.close();
    if (!out) {
        *error = "cannot write " + path.string();
        return false;
    }
    std::printf("wrote %s (%zu rows)\n", path.c_str(), results.size());
    return true;
}

std::string
MetricList::json() const
{
    std::string out = "{";
    for (const auto &[name, vu] : items_) {
        char num[64];
        // %.17g round-trips a double: every digit as measured.
        std::snprintf(num, sizeof num, "%.17g", vu.first);
        if (out.size() > 1)
            out += ", ";
        out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
               vu.second + "\"}";
    }
    return out + "}";
}

} // namespace perfbench
