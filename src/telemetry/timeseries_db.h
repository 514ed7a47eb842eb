// In-memory time-series database.
//
// The production deployment stores one power sample per server per minute in
// MySQL behind a RESTful query API (§3.3). Here the same role is played by an
// append-only in-memory store with range queries; the controller and the
// benches consume the identical query surface (latest value, range scan,
// whole-series extraction).
//
// Two access tiers:
//   1. Interned handles (SeriesId) — the hot path. A producer interns each
//      series name once (paying the hash + string copy), then appends through
//      the integer handle: a bounds-checked vector index, no hashing, no
//      string formatting, and (after ReservePoints) no allocation.
//   2. String names — the convenience/export surface. Kept as a thin shim
//      over interning so tests, benches, and CSV export read naturally.
//
// Storage is a flat std::vector<std::vector<TimePoint>> indexed by SeriesId;
// the name->id map is only consulted at intern/lookup time, never per append.
//
// An optional persistent cold tier (src/telemetry/cold_store.h) bounds the
// hot tier's RSS: AttachColdStore sets a per-series hot budget, and appends
// that push a series past it spill the oldest run of points into
// memory-mapped segment files through the ordinary AppendBatch span path.
// Spilling changes where history lives, not what it says — QueryStitched /
// SeriesStitched return the full hot+cold history losslessly (bit-exact
// doubles, exact microsecond timestamps), so export and analysis bytes are
// identical with the tier on or off. With no store attached (the default)
// the spill machinery costs one integer compare per append.

#ifndef SRC_TELEMETRY_TIMESERIES_DB_H_
#define SRC_TELEMETRY_TIMESERIES_DB_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/check.h"
#include "src/common/time.h"

namespace ampere {

class ColdStore;  // src/telemetry/cold_store.h

struct TimePoint {
  SimTime time;
  double value = 0.0;
};

// One contiguous run of cold samples, decoded lazily. `values` is a
// zero-copy span over the mapped value column (raw IEEE-754 bits, so reads
// are bit-exact); timestamps reconstruct exactly as base_time plus the
// running sum of `deltas[1..]` (microsecond deltas — deltas[0] is the delta
// from the sample *before* this piece and is ignored when decoding).
struct ColdPiece {
  SimTime base_time;                // Absolute time of values[0].
  std::span<const int64_t> deltas;  // Same length as values.
  std::span<const double> values;

  size_t size() const { return values.size(); }
};

// A stitched hot+cold query result: cold pieces in time order followed by
// the in-RAM hot tail, all zero-copy. Spans are invalidated by the next
// Append to the same series (hot growth, spill, or segment seal); consume
// before resuming appends. With the cold tier off this is just a wrapper
// around the hot span, so callers can migrate unconditionally.
class StitchedView {
 public:
  StitchedView() = default;
  StitchedView(std::vector<ColdPiece> cold, std::span<const TimePoint> hot)
      : cold_(std::move(cold)), hot_(hot) {
    for (const ColdPiece& piece : cold_) {
      cold_size_ += piece.size();
    }
  }

  size_t size() const { return cold_size_ + hot_.size(); }
  bool empty() const { return size() == 0; }
  std::span<const ColdPiece> cold_pieces() const { return cold_; }
  std::span<const TimePoint> hot() const { return hot_; }

  // Visits every point in time order (cold pieces, then the hot tail).
  template <typename Fn>
  void ForEachPoint(Fn&& fn) const {
    for (const ColdPiece& piece : cold_) {
      SimTime t = piece.base_time;
      for (size_t i = 0; i < piece.values.size(); ++i) {
        if (i > 0) {
          t = t + SimTime::Micros(piece.deltas[i]);
        }
        fn(TimePoint{t, piece.values[i]});
      }
    }
    for (const TimePoint& point : hot_) {
      fn(point);
    }
  }

  // Copying convenience for tests/analysis.
  std::vector<TimePoint> Materialize() const;

 private:
  std::vector<ColdPiece> cold_;
  std::span<const TimePoint> hot_;
  size_t cold_size_ = 0;
};

// Opaque interned-series handle. Default-constructed handles are invalid;
// valid handles come from TimeSeriesDb::Intern / Find and stay valid for the
// lifetime of that database (series are never removed).
class SeriesId {
 public:
  SeriesId() = default;
  bool valid() const { return value_ != kInvalid; }
  uint32_t index() const { return value_; }
  friend bool operator==(SeriesId a, SeriesId b) {
    return a.value_ == b.value_;
  }
  friend bool operator!=(SeriesId a, SeriesId b) {
    return a.value_ != b.value_;
  }

 private:
  friend class TimeSeriesDb;
  explicit SeriesId(uint32_t value) : value_(value) {}
  static constexpr uint32_t kInvalid = 0xffffffffu;
  uint32_t value_ = kInvalid;
};

class TimeSeriesDb {
 public:
  // --- Interned-handle tier (hot path) -----------------------------------

  // Returns the handle for `name`, creating an empty series on first use.
  // The only place a string is hashed or copied; producers call this once
  // per series at setup time (PowerMonitor pre-interns its whole fleet).
  SeriesId Intern(std::string_view name);

  // Lookup without creation; invalid handle if the series does not exist.
  SeriesId Find(std::string_view name) const;

  // Appends a point through a handle: one bounds check + vector push_back.
  // Timestamps within one series must be non-decreasing (the monitor
  // samples monotonically). This is the hot path of every run — one call
  // per recorded aggregate per minute — and after ReservePoints it touches
  // no allocator.
  void Append(SeriesId id, SimTime t, double value) {
    AMPERE_CHECK(id.valid() && id.index() < points_.size())
        << "append through invalid SeriesId";
    std::vector<TimePoint>& points = points_[id.index()];
    AMPERE_CHECK(points.empty() || points.back().time <= t)
        << "out-of-order append to series " << names_[id.index()];
    points.push_back(TimePoint{t, value});
    if (points.size() >= spill_trigger_) {  // SIZE_MAX when no cold tier.
      SpillOldest(id);
    }
  }

  // Bulk append through a handle: one bounds/order check for the whole
  // batch, then a single ranged insert. Semantically identical to calling
  // Append once per element (points must be internally non-decreasing and
  // start at or after the series' current tail); the batch form exists so
  // flush-style producers (e.g. ingest of a precomputed trace) pay one call
  // and at most one growth per batch instead of per point. After
  // ReservePoints it allocates nothing.
  void AppendBatch(SeriesId id, std::span<const TimePoint> batch) {
    if (batch.empty()) {
      return;
    }
    AMPERE_CHECK(id.valid() && id.index() < points_.size())
        << "batch append through invalid SeriesId";
    std::vector<TimePoint>& points = points_[id.index()];
    AMPERE_CHECK(points.empty() || points.back().time <= batch.front().time)
        << "out-of-order batch append to series " << names_[id.index()];
    for (size_t i = 1; i < batch.size(); ++i) {
      AMPERE_CHECK(batch[i - 1].time <= batch[i].time)
          << "unsorted batch for series " << names_[id.index()];
    }
    points.insert(points.end(), batch.begin(), batch.end());
    if (points.size() >= spill_trigger_) {  // SIZE_MAX when no cold tier.
      SpillOldest(id);
    }
  }

  // Pre-sizes one series' storage for `expected_points` total points so the
  // steady-state Append never reallocates.
  void ReservePoints(SeriesId id, size_t expected_points);

  // Whole series / range views by handle. Spans are invalidated by the next
  // Append to the same series (vector growth); consume before resampling.
  // With a cold store attached these see the HOT TIER ONLY (the most recent
  // points within the budget) — full-history readers use QueryStitched.
  std::span<const TimePoint> Series(SeriesId id) const {
    if (!id.valid() || id.index() >= points_.size()) {
      return {};
    }
    return points_[id.index()];
  }
  std::span<const TimePoint> QueryView(SeriesId id, SimTime from,
                                       SimTime to) const;
  std::optional<TimePoint> Latest(SeriesId id) const {
    auto points = Series(id);
    if (points.empty()) {
      return std::nullopt;
    }
    return points.back();
  }

  // Interned-name reverse lookup (valid handles only).
  const std::string& Name(SeriesId id) const;

  // Number of interned series (including pre-interned, still-empty ones).
  size_t NumSeries() const { return points_.size(); }

  // --- Cold tier (optional persistent spill) ------------------------------

  // Attaches a cold store and arms the spill policy: once a series' hot
  // vector reaches `hot_budget_samples` points, the oldest half spills into
  // `store` (through its AppendBatch span path) and is erased from RAM, so
  // per-series hot occupancy never exceeds the budget. Series already in
  // `store` (the OpenExisting restart path) are interned so lookups and
  // SeriesNames see them. `store` must outlive this db; budget >= 2.
  void AttachColdStore(ColdStore* store, size_t hot_budget_samples);

  bool spill_enabled() const { return cold_ != nullptr; }
  size_t hot_budget_samples() const { return hot_budget_; }
  uint64_t samples_spilled() const { return samples_spilled_; }
  ColdStore* cold_store() const { return cold_; }

  // Full-history reads across both tiers: cold pieces (zero-copy views of
  // the mapped columns) stitched with the hot tail. With no cold store
  // attached these are exactly the hot-span reads, so export/analysis code
  // calls them unconditionally and gets identical bytes either way.
  StitchedView SeriesStitched(SeriesId id) const;
  StitchedView QueryStitched(SeriesId id, SimTime from, SimTime to) const;
  StitchedView SeriesStitched(std::string_view series) const {
    return SeriesStitched(Find(series));
  }
  StitchedView QueryStitched(std::string_view series, SimTime from,
                             SimTime to) const {
    return QueryStitched(Find(series), from, to);
  }

  // --- String tier (shim over interning) ---------------------------------

  // Appends a point; interns the name on first use. Heterogeneous lookup
  // keeps the repeat path allocation-free, but still pays one hash probe —
  // hot producers should hold a SeriesId instead.
  void Append(std::string_view series, SimTime t, double value) {
    Append(Intern(series), t, value);
  }

  // Capacity hint: pre-sizes the name map and series tables for
  // `expected_series` entries so interning never rehashes mid-run.
  void Reserve(size_t expected_series);

  // Whole series (empty span if the series does not exist).
  std::span<const TimePoint> Series(std::string_view series) const {
    return Series(Find(series));
  }

  // Points with from <= time <= to, as a view (no copy).
  std::span<const TimePoint> QueryView(std::string_view series, SimTime from,
                                       SimTime to) const {
    return QueryView(Find(series), from, to);
  }

  // Most recent point, if any.
  std::optional<TimePoint> Latest(std::string_view series) const {
    return Latest(Find(series));
  }

  // Names of series that hold at least one point (in either tier), sorted.
  // Pre-interned but never-appended series are deliberately excluded:
  // interning is a capacity hint, not an observable write.
  std::vector<std::string> SeriesNames() const;
  // Total points across both tiers.
  size_t TotalPoints() const;

 private:
  // Spills the oldest points of a series past the hot budget into the cold
  // store and erases them from RAM. Called from the append paths when a
  // series reaches the budget; keeps the newest half (always >= 1 point, so
  // Latest and the append-order check stay hot-only).
  void SpillOldest(SeriesId id);
  // Transparent (heterogeneous) hash/equal: find() and the insert-or-lookup
  // in Intern accept std::string_view without materializing a std::string.
  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::unordered_map<std::string, uint32_t, TransparentHash, std::equal_to<>>
      index_;
  std::vector<std::string> names_;             // Indexed by SeriesId.
  std::vector<std::vector<TimePoint>> points_;  // Indexed by SeriesId.

  // Cold tier; null (and spill_trigger_ = SIZE_MAX, keeping the append-path
  // branch always-false) until AttachColdStore.
  ColdStore* cold_ = nullptr;
  size_t hot_budget_ = 0;
  size_t spill_trigger_ = std::numeric_limits<size_t>::max();
  uint64_t samples_spilled_ = 0;
};

}  // namespace ampere

#endif  // SRC_TELEMETRY_TIMESERIES_DB_H_
