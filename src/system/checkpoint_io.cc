#include "src/system/checkpoint_io.h"

#include <fstream>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/error.h"
#include "src/telemetry/json.h"

namespace dspcam::system {

namespace {

namespace json = telemetry::json;

// --- Writing. ---

void append_snapshot(std::string& out, const fault::ShardSnapshot& snap) {
  out += "{\"kind\":\"shard\",\"shard\":" + std::to_string(snap.shard) +
         ",\"version\":" + std::to_string(snap.version) +
         ",\"data_width\":" + std::to_string(snap.data_width) +
         ",\"cam_kind\":" + json::quote(snap.cam_kind) +
         ",\"capacity\":" + std::to_string(snap.capacity) +
         ",\"entry_count\":" + std::to_string(snap.entry_count) +
         ",\"entry_bits\":" + std::to_string(snap.entry_bits) +
         ",\"parity_protected\":" + (snap.parity_protected ? "true" : "false") +
         ",\"cursors\":[";
  for (std::size_t i = 0; i < snap.cursors.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(snap.cursors[i]);
  }
  out += "],\"checksum\":" + std::to_string(snap.checksum) + ",\"entries\":[";
  for (std::size_t i = 0; i < snap.entries.size(); ++i) {
    const fault::EntryState& e = snap.entries[i];
    if (i != 0) out += ",";
    out += '[';
    out += std::to_string(e.stored) + "," + std::to_string(e.mask) + "," +
           (e.valid ? "1" : "0") + "," + (e.parity ? "1" : "0") + "]";
  }
  out += "]}";
}

// --- Reading: one parsed JSONL record. ---

/// One record of the file. Every read refuses anything but the shape the
/// writer emits, naming the line.
struct Record {
  json::Value doc;
  std::size_t lineno;

  Record(const std::string& line, std::size_t n) : lineno(n) {
    json::Result r = json::parse(line);
    if (!r.ok) {
      fail("malformed JSON at offset " + std::to_string(r.error_offset) + ": " +
           r.error);
    }
    doc = std::move(r.value);
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw SimError("checkpoint line " + std::to_string(lineno) + ": " + what);
  }

  bool is(const char* kind) const {
    const json::Value* v = doc.find("kind");
    return v != nullptr && v->str() == kind;
  }

  const json::Value& get(const char* key) const {
    const json::Value* v = doc.find(key);
    if (v == nullptr) fail("missing field '" + std::string(key) + "'");
    return *v;
  }

  /// Decimal digits only: no sign, and nothing past 64 bits.
  std::uint64_t u64(const json::Value& v, const char* key) const {
    const std::optional<std::uint64_t> n = v.u64();
    if (!n) {
      fail("field '" + std::string(key) + "' holds no unsigned 64-bit integer");
    }
    return *n;
  }

  /// The unsigned value of `key`, refused unless it fits T.
  template <typename T>
  T field(const char* key) const {
    const std::uint64_t v = u64(get(key), key);
    if (v > std::numeric_limits<T>::max()) {
      fail("field '" + std::string(key) + "' value " + std::to_string(v) +
           " is out of range (max " +
           std::to_string(std::numeric_limits<T>::max()) + ")");
    }
    return static_cast<T>(v);
  }

  std::string str(const char* key) const {
    const std::optional<std::string_view> v = get(key).str();
    if (!v) fail("field '" + std::string(key) + "' is not a string");
    return std::string(*v);
  }

  bool boolean(const char* key) const {
    const std::optional<bool> v = get(key).boolean();
    if (!v) fail("field '" + std::string(key) + "' is not true/false");
    return *v;
  }

  std::vector<std::uint64_t> u64_array(const json::Value& v, const char* key) const {
    if (!v.is_array()) fail("field '" + std::string(key) + "' is not an array");
    std::vector<std::uint64_t> out;
    out.reserve(v.items().size());
    for (const json::Value& item : v.items()) out.push_back(u64(item, key));
    return out;
  }
};

fault::ShardSnapshot parse_shard_record(const Record& rec) {
  fault::ShardSnapshot snap;
  snap.shard = rec.field<unsigned>("shard");
  snap.version = rec.field<std::uint32_t>("version");
  snap.data_width = rec.field<unsigned>("data_width");
  snap.cam_kind = rec.str("cam_kind");
  snap.capacity = rec.field<unsigned>("capacity");
  snap.entry_count = rec.field<std::size_t>("entry_count");
  snap.entry_bits = rec.field<unsigned>("entry_bits");
  snap.parity_protected = rec.boolean("parity_protected");
  snap.cursors = rec.u64_array(rec.get("cursors"), "cursors");
  snap.checksum = rec.field<std::uint64_t>("checksum");
  const json::Value& entries = rec.get("entries");
  if (!entries.is_array()) rec.fail("field 'entries' is not an array");
  for (const json::Value& entry : entries.items()) {
    const std::vector<std::uint64_t> fields = rec.u64_array(entry, "entries");
    if (fields.size() != 4 || fields[2] > 1 || fields[3] > 1) {
      rec.fail("entry tuples are [stored,mask,valid,parity] with 0/1 flags");
    }
    fault::EntryState e;
    e.stored = fields[0];
    e.mask = fields[1];
    e.valid = fields[2] != 0;
    e.parity = fields[3] != 0;
    snap.entries.push_back(e);
  }
  return snap;
}

}  // namespace

const char* to_string(ShardedCamEngine::Partition partition) {
  return partition == ShardedCamEngine::Partition::kHash ? "hash" : "range";
}

ShardedCamEngine::Partition partition_from_string(const std::string& name) {
  if (name == "hash") return ShardedCamEngine::Partition::kHash;
  if (name == "range") return ShardedCamEngine::Partition::kRange;
  throw SimError("checkpoint: unknown partition kind '" + name + "'");
}

void save_checkpoint(const ShardedCamEngine::EngineCheckpoint& ckpt,
                     const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw SimError("save_checkpoint: cannot open '" + path + "'");
  std::string line = "{\"kind\":\"dspcam.checkpoint\",\"version\":" +
                     std::to_string(ckpt.version) +
                     ",\"shards\":" + std::to_string(ckpt.shards) +
                     ",\"partition\":\"" + to_string(ckpt.partition) + "\"" +
                     ",\"key_bits\":" + std::to_string(ckpt.key_bits) +
                     ",\"shard_capacity\":" + std::to_string(ckpt.shard_capacity) +
                     "}";
  out << line << "\n";
  for (const fault::ShardSnapshot& snap : ckpt.shard_snaps) {
    line.clear();
    append_snapshot(line, snap);
    out << line << "\n";
  }
  out.flush();
  if (!out) throw SimError("save_checkpoint: write to '" + path + "' failed");
}

ShardedCamEngine::EngineCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw SimError("load_checkpoint: cannot open '" + path + "'");
  std::string line;
  if (!std::getline(in, line) || line.empty()) {
    throw SimError("load_checkpoint: '" + path + "' has no header record");
  }
  const Record header(line, 1);
  if (!header.is("dspcam.checkpoint")) {
    throw SimError("load_checkpoint: '" + path +
                   "' is not a dspcam checkpoint (header kind mismatch)");
  }
  const std::uint64_t version = header.field<std::uint64_t>("version");
  if (version != ShardedCamEngine::EngineCheckpoint::kVersion) {
    throw SimError("load_checkpoint: unsupported checkpoint version " +
                   std::to_string(version) + " (this build reads version " +
                   std::to_string(ShardedCamEngine::EngineCheckpoint::kVersion) +
                   ")");
  }
  ShardedCamEngine::EngineCheckpoint ckpt;
  ckpt.shards = header.field<unsigned>("shards");
  ckpt.partition = partition_from_string(header.str("partition"));
  ckpt.key_bits = header.field<unsigned>("key_bits");
  ckpt.shard_capacity = header.field<unsigned>("shard_capacity");

  std::size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const Record rec(line, lineno);
    if (!rec.is("shard")) {
      throw SimError("load_checkpoint: line " + std::to_string(lineno) +
                     " is not a shard record");
    }
    fault::ShardSnapshot snap = parse_shard_record(rec);
    snap.verify();  // corrupt files are rejected here, with the reason
    if (snap.shard != ckpt.shard_snaps.size()) {
      throw SimError("load_checkpoint: line " + std::to_string(lineno) +
                     " holds shard " + std::to_string(snap.shard) +
                     ", expected shard " +
                     std::to_string(ckpt.shard_snaps.size()) +
                     " (records must be in shard order)");
    }
    ckpt.shard_snaps.push_back(std::move(snap));
  }
  if (ckpt.shard_snaps.size() != ckpt.shards) {
    throw SimError("load_checkpoint: header says " + std::to_string(ckpt.shards) +
                   " shards but the file carries " +
                   std::to_string(ckpt.shard_snaps.size()) + " shard records");
  }
  return ckpt;
}

}  // namespace dspcam::system
