/**
 * @file
 * The binary store behind the SweepSink contract — the sink every
 * sweep driver, `vqac run --cells` and the perf benches construct.
 *
 * contains()/storedRow() resolve against the SweepStore index,
 * write() appends one O(row) group-committed record per executed cell
 * (carried rows are already in the log), and the resume / quarantine
 * / retry_failed contracts hold: reserved row fields are rejected,
 * every append passes the "sink.write" fault probe, and a healthy row
 * supersedes a marker. Opening a path that holds anything other than
 * a binary store (a JSON export, say) throws without touching the
 * file; `vqastore import` converts a JSON store, and `vqastore
 * export` turns this log back into JSON.
 */

#ifndef EFTVQA_STORE_SINK_HPP
#define EFTVQA_STORE_SINK_HPP

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
     *  markers included). */
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

} // namespace store
} // namespace eftvqa

#endif // EFTVQA_STORE_SINK_HPP
