#include "src/system/checkpoint_io.h"

#include <fstream>
#include <limits>

#include "src/common/error.h"
#include "src/telemetry/jsonv.h"

namespace dspcam::system {

namespace {

// --- Writing. ---

void append_snapshot(std::string& out, const fault::ShardSnapshot& snap) {
  out += "{\"kind\":\"shard\",\"shard\":" + std::to_string(snap.shard) +
         ",\"version\":" + std::to_string(snap.version) +
         ",\"data_width\":" + std::to_string(snap.data_width) +
         ",\"cam_kind\":\"" + snap.cam_kind + "\"" +
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

// --- Reading: cursor scanner over one JSONL record. ---

struct Scan {
  const std::string& line;
  const std::size_t lineno;
  std::size_t pos = 0;

  /// Refuses a line that is not one well-formed JSON document, so the
  /// field scan below never has to guess at trailing garbage.
  Scan(const std::string& l, std::size_t n) : line(l), lineno(n) {
    const telemetry::jsonv::Result r = telemetry::jsonv::validate(line);
    if (!r.ok) {
      fail("malformed JSON at offset " + std::to_string(r.error_offset) + ": " +
           r.error);
    }
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw SimError("checkpoint line " + std::to_string(lineno) + ": " + what);
  }

  /// Jumps to the value of `"key":` (searched from the line start; our
  /// writer emits each key once).
  void seek(const char* key) {
    const std::string pat = std::string("\"") + key + "\":";
    const std::size_t at = line.find(pat);
    if (at == std::string::npos) fail("missing field '" + std::string(key) + "'");
    pos = at + pat.size();
  }

  void expect(char c) {
    if (pos >= line.size() || line[pos] != c) {
      fail(std::string("expected '") + c + "' at offset " + std::to_string(pos));
    }
    ++pos;
  }

  bool peek(char c) const { return pos < line.size() && line[pos] == c; }

  /// A run of decimal digits: no sign, and nothing past 64 bits.
  std::uint64_t u64() {
    const std::size_t start = pos;
    std::uint64_t v = 0;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
      const unsigned digit = static_cast<unsigned>(line[pos] - '0');
      if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
        fail("integer at offset " + std::to_string(start) + " exceeds 64 bits");
      }
      v = v * 10 + digit;
      ++pos;
    }
    if (pos == start) {
      fail("expected an unsigned integer at offset " + std::to_string(start));
    }
    return v;
  }

  /// The unsigned value of `"key":`, refused unless it fits T.
  template <typename T>
  T field(const char* key) {
    seek(key);
    const std::uint64_t v = u64();
    if (v > std::numeric_limits<T>::max()) {
      fail("field '" + std::string(key) + "' value " + std::to_string(v) +
           " is out of range (max " +
           std::to_string(std::numeric_limits<T>::max()) + ")");
    }
    return static_cast<T>(v);
  }

  std::string str() {
    expect('"');
    const std::size_t close = line.find('"', pos);
    if (close == std::string::npos) fail("unterminated string");
    std::string v = line.substr(pos, close - pos);
    pos = close + 1;
    return v;
  }

  bool boolean() {
    if (line.compare(pos, 4, "true") == 0) {
      pos += 4;
      return true;
    }
    if (line.compare(pos, 5, "false") == 0) {
      pos += 5;
      return false;
    }
    fail("expected true/false at offset " + std::to_string(pos));
  }

  std::vector<std::uint64_t> u64_array() {
    std::vector<std::uint64_t> v;
    expect('[');
    if (peek(']')) {
      ++pos;
      return v;
    }
    for (;;) {
      v.push_back(u64());
      if (peek(',')) {
        ++pos;
        continue;
      }
      expect(']');
      return v;
    }
  }
};

fault::ShardSnapshot parse_shard_record(const std::string& line,
                                        std::size_t lineno) {
  Scan sc(line, lineno);
  fault::ShardSnapshot snap;
  snap.shard = sc.field<unsigned>("shard");
  snap.version = sc.field<std::uint32_t>("version");
  snap.data_width = sc.field<unsigned>("data_width");
  sc.seek("cam_kind");
  snap.cam_kind = sc.str();
  snap.capacity = sc.field<unsigned>("capacity");
  snap.entry_count = sc.field<std::size_t>("entry_count");
  snap.entry_bits = sc.field<unsigned>("entry_bits");
  sc.seek("parity_protected");
  snap.parity_protected = sc.boolean();
  sc.seek("cursors");
  snap.cursors = sc.u64_array();
  snap.checksum = sc.field<std::uint64_t>("checksum");
  sc.seek("entries");
  sc.expect('[');
  if (sc.peek(']')) {
    ++sc.pos;
  } else {
    for (;;) {
      const std::vector<std::uint64_t> fields = sc.u64_array();
      if (fields.size() != 4 || fields[2] > 1 || fields[3] > 1) {
        sc.fail("entry tuples are [stored,mask,valid,parity] with 0/1 flags");
      }
      fault::EntryState e;
      e.stored = fields[0];
      e.mask = fields[1];
      e.valid = fields[2] != 0;
      e.parity = fields[3] != 0;
      snap.entries.push_back(e);
      if (sc.peek(',')) {
        ++sc.pos;
        continue;
      }
      sc.expect(']');
      break;
    }
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
  Scan header(line, 1);
  if (line.find("\"kind\":\"dspcam.checkpoint\"") == std::string::npos) {
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
  header.seek("partition");
  ckpt.partition = partition_from_string(header.str());
  ckpt.key_bits = header.field<unsigned>("key_bits");
  ckpt.shard_capacity = header.field<unsigned>("shard_capacity");

  std::size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line.find("\"kind\":\"shard\"") == std::string::npos) {
      throw SimError("load_checkpoint: line " + std::to_string(lineno) +
                     " is not a shard record");
    }
    fault::ShardSnapshot snap = parse_shard_record(line, lineno);
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
