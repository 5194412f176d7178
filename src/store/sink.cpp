#include "store/sink.hpp"

#include "vqa/fault.hpp"
#include "vqa/storefmt.hpp"

namespace eftvqa {
namespace store {

BinarySweepSink::BinarySweepSink(std::string path,
                                 std::string sweep_name)
    : store_(std::move(path), SweepStore::Mode::append,
             std::move(sweep_name))
{
    const StoreStats stats = store_.stats();
    loaded_cells_ = stats.cells;
    loaded_markers_ = stats.markers;
    corrupt_records_ = static_cast<size_t>(stats.rejected());
}

bool
BinarySweepSink::contains(const SweepCell &cell) const
{
    return store_.containsKey(cell.keyString());
}

SweepRow
BinarySweepSink::storedRow(const SweepCell &cell) const
{
    const std::string key = cell.keyString();
    if (!store_.containsKey(key))
        throw std::invalid_argument(
            "BinarySweepSink: no stored row for cell '" + cell.label +
            "'");
    std::string stored_key, label;
    SweepRow row;
    const std::string line = store_.lineFor(key);
    if (!storefmt::parseChecksummedLine(line, stored_key, label, row))
        throw std::runtime_error(
            "BinarySweepSink: stored line for cell '" + cell.label +
            "' failed verification");
    return row;
}

bool
BinarySweepSink::quarantined(const SweepCell &cell) const
{
    return store_.markerFor(cell.keyString());
}

CellOutcome
BinarySweepSink::storedOutcome(const SweepCell &cell) const
{
    if (!quarantined(cell))
        return {};
    return outcomeFromQuarantineRow(storedRow(cell));
}

void
BinarySweepSink::write(const SweepCell &cell, const SweepRow &row,
                       bool executed)
{
    // A carried row was read from this log; appending it again would
    // only grow the log and cost an fsync per resume pass.
    if (!executed)
        return;
    storefmt::validateRowFields("BinarySweepSink", row);
    const std::string line =
        storefmt::checksummedCellLine(storefmt::serializeCellPayload(
            cell.keyString(), cell.label, row));
    // A fault here means the row was never persisted and the cell
    // re-executes on resume.
    faultProbe("sink.write");
    store_.appendLine(line);
}

void
BinarySweepSink::writeQuarantined(const SweepCell &cell,
                                  const CellOutcome &outcome)
{
    const std::string line =
        storefmt::checksummedCellLine(storefmt::serializeCellPayload(
            cell.keyString(), cell.label, quarantineRowFor(outcome)));
    faultProbe("sink.write");
    store_.appendLine(line);
}

void
BinarySweepSink::finish(const SweepReport &)
{
    // Persist the index segment so the next open (resume) takes the
    // O(index) fast path; the log stays a pure function of the rows.
    store_.sync();
}

} // namespace store
} // namespace eftvqa
