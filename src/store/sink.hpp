/**
 * @file
 * The binary store behind the SweepSink contract, and the format
 * auto-detecting sink factory every sweep driver uses.
 *
 * BinarySweepSink is the drop-in replacement for JsonSweepSink on the
 * hot path: contains()/storedRow() resolve against the SweepStore
 * index, write() appends one O(row) group-committed record per executed
 * cell (carried rows are already in the log) instead of rewriting the
 * whole file, and the resume / quarantine / retry_failed contracts
 * carry over unchanged (same reserved-field rejection, same
 * "sink.write" fault probe per append, same healthy-supersedes-marker
 * rule). `store export` on the resulting
 * file reproduces a JsonSweepSink run's cell lines byte-identically.
 *
 * makeSweepSink() picks the format: an existing file keeps whatever
 * it is (binary magic vs JSON), a fresh path ending in ".json" gets
 * the human-readable JsonSweepSink, anything else gets the binary
 * store — so existing CI flows that diff `.json` stores keep their
 * bytes, and everything else gets O(row) appends by default.
 */

#ifndef EFTVQA_STORE_SINK_HPP
#define EFTVQA_STORE_SINK_HPP

#include <memory>
#include <string>

#include "store/sweep_store.hpp"
#include "vqa/sweep.hpp"

namespace eftvqa {
namespace store {

/** SweepSink over an append-only binary SweepStore. */
class BinarySweepSink : public SweepSink
{
  public:
    BinarySweepSink(std::string path, std::string sweep_name);

    bool contains(const SweepCell &cell) const override;
    SweepRow storedRow(const SweepCell &cell) const override;
    bool quarantined(const SweepCell &cell) const override;
    CellOutcome storedOutcome(const SweepCell &cell) const override;
    void write(const SweepCell &cell, const SweepRow &row,
               bool executed) override;
    void writeQuarantined(const SweepCell &cell,
                          const CellOutcome &outcome) override;
    void finish(const SweepReport &report) override;

    /** Cells the store already held at open (resume candidates,
     *  markers included) — the JsonSweepSink accessor mirror. */
    size_t loadedCells() const { return loaded_cells_; }
    /** Quarantine markers among the loaded cells. */
    size_t quarantinedCells() const { return loaded_markers_; }
    /** Records the open scan rejected (bad checksum / torn tail). */
    size_t corruptLines() const { return corrupt_records_; }

    SweepStore &underlyingStore() { return store_; }

  private:
    SweepStore store_;
    size_t loaded_cells_ = 0;
    size_t loaded_markers_ = 0;
    size_t corrupt_records_ = 0;
};

/**
 * Open the right sink for @p path: an existing binary store or a
 * fresh non-".json" path gets BinarySweepSink, an existing JSON store
 * or a fresh ".json" path gets JsonSweepSink.
 */
std::unique_ptr<SweepSink> makeSweepSink(const std::string &path,
                                         const std::string &sweep_name);

} // namespace store
} // namespace eftvqa

#endif // EFTVQA_STORE_SINK_HPP
