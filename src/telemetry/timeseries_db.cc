#include "src/telemetry/timeseries_db.h"

#include <algorithm>

#include "src/telemetry/cold_store.h"

namespace ampere {

std::vector<TimePoint> StitchedView::Materialize() const {
  std::vector<TimePoint> out;
  out.reserve(size());
  ForEachPoint([&out](const TimePoint& point) { out.push_back(point); });
  return out;
}

SeriesId TimeSeriesDb::Intern(std::string_view name) {
  // Heterogeneous find first: repeat interns (and the string-API shim) pay
  // one hash probe and allocate nothing.
  auto it = index_.find(name);
  if (it != index_.end()) {
    return SeriesId(it->second);
  }
  AMPERE_CHECK(points_.size() < SeriesId::kInvalid) << "series table full";
  const uint32_t id = static_cast<uint32_t>(points_.size());
  names_.emplace_back(name);
  points_.emplace_back();
  index_.emplace(names_.back(), id);
  return SeriesId(id);
}

SeriesId TimeSeriesDb::Find(std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return SeriesId();
  }
  return SeriesId(it->second);
}

void TimeSeriesDb::ReservePoints(SeriesId id, size_t expected_points) {
  AMPERE_CHECK(id.valid() && id.index() < points_.size())
      << "ReservePoints through invalid SeriesId";
  size_t target = expected_points;
  if (cold_ != nullptr && target > hot_budget_) {
    // Spilling caps hot occupancy at the budget; reserving the full run
    // length would defeat the bounded-RSS contract.
    target = hot_budget_;
  }
  points_[id.index()].reserve(target);
}

void TimeSeriesDb::AttachColdStore(ColdStore* store,
                                   size_t hot_budget_samples) {
  AMPERE_CHECK(store != nullptr) << "AttachColdStore with null store";
  AMPERE_CHECK(cold_ == nullptr) << "cold store already attached";
  AMPERE_CHECK(hot_budget_samples >= 2)
      << "hot budget must keep at least two samples";
  cold_ = store;
  hot_budget_ = hot_budget_samples;
  spill_trigger_ = hot_budget_samples;
  // Restart path: series living only in the reopened store become visible
  // to Find / SeriesNames without a hot append.
  for (const std::string& name : store->SeriesNames()) {
    Intern(name);
  }
}

void TimeSeriesDb::SpillOldest(SeriesId id) {
  std::vector<TimePoint>& points = points_[id.index()];
  const size_t keep = std::max<size_t>(1, hot_budget_ / 2);
  if (points.size() <= keep) {
    return;
  }
  const size_t n = points.size() - keep;
  cold_->AppendBatch(names_[id.index()],
                     std::span<const TimePoint>(points.data(), n));
  points.erase(points.begin(),
               points.begin() + static_cast<std::ptrdiff_t>(n));
  samples_spilled_ += n;
}

StitchedView TimeSeriesDb::QueryStitched(SeriesId id, SimTime from,
                                         SimTime to) const {
  std::vector<ColdPiece> cold;
  if (cold_ != nullptr && id.valid() && id.index() < names_.size()) {
    cold_->QueryPieces(names_[id.index()], from, to, &cold);
  }
  return StitchedView(std::move(cold), QueryView(id, from, to));
}

StitchedView TimeSeriesDb::SeriesStitched(SeriesId id) const {
  return QueryStitched(id, SimTime::Micros(std::numeric_limits<int64_t>::min()),
                       SimTime::Micros(std::numeric_limits<int64_t>::max()));
}

std::span<const TimePoint> TimeSeriesDb::QueryView(SeriesId id, SimTime from,
                                                   SimTime to) const {
  auto points = Series(id);
  auto lo = std::lower_bound(
      points.begin(), points.end(), from,
      [](const TimePoint& p, SimTime t) { return p.time < t; });
  auto hi = std::upper_bound(
      points.begin(), points.end(), to,
      [](SimTime t, const TimePoint& p) { return t < p.time; });
  return points.subspan(static_cast<size_t>(lo - points.begin()),
                        static_cast<size_t>(hi - lo));
}

const std::string& TimeSeriesDb::Name(SeriesId id) const {
  AMPERE_CHECK(id.valid() && id.index() < names_.size())
      << "Name of invalid SeriesId";
  return names_[id.index()];
}

void TimeSeriesDb::Reserve(size_t expected_series) {
  index_.reserve(expected_series);
  names_.reserve(expected_series);
  points_.reserve(expected_series);
}

std::vector<std::string> TimeSeriesDb::SeriesNames() const {
  std::vector<std::string> names;
  names.reserve(names_.size());
  for (size_t i = 0; i < names_.size(); ++i) {
    if (!points_[i].empty() ||
        (cold_ != nullptr && cold_->SamplesForSeries(names_[i]) > 0)) {
      names.push_back(names_[i]);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

size_t TimeSeriesDb::TotalPoints() const {
  size_t n = 0;
  for (const auto& points : points_) {
    n += points.size();
  }
  if (cold_ != nullptr) {
    n += static_cast<size_t>(cold_->total_samples());
  }
  return n;
}

}  // namespace ampere
