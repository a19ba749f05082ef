#include "relation/index.h"

#include <string>
#include <string_view>
#include <vector>

namespace catmark {

std::string PrimaryKeyIndex::KeyOf(const Value& v) {
  std::vector<std::uint8_t> bytes;
  v.SerializeForHash(bytes);
  return std::string(bytes.begin(), bytes.end());
}

Result<PrimaryKeyIndex> PrimaryKeyIndex::Build(const Relation& rel) {
  if (!rel.schema().has_primary_key()) {
    return Status::FailedPrecondition("schema declares no primary key");
  }
  PrimaryKeyIndex index;
  index.key_column_ =
      static_cast<std::size_t>(rel.schema().primary_key_index());
  index.rows_.reserve(rel.NumRows());
  const ColumnStore& store = rel.store();
  std::vector<std::uint8_t> scratch;
  for (std::size_t i = 0; i < rel.NumRows(); ++i) {
    if (store.IsNull(i, index.key_column_)) {
      return Status::FailedPrecondition("NULL primary key at row " +
                                        std::to_string(i));
    }
    const std::string_view key = store.CellKey(i, index.key_column_, scratch);
    if (!index.rows_.emplace(std::string(key), i).second) {
      return Status::FailedPrecondition(
          "duplicate primary key '" +
          store.MaterializeRow(i)[index.key_column_].ToString() + "'");
    }
  }
  return index;
}

std::optional<std::size_t> PrimaryKeyIndex::Find(const Value& key) const {
  const auto it = rows_.find(KeyOf(key));
  if (it == rows_.end()) return std::nullopt;
  return it->second;
}

}  // namespace catmark
