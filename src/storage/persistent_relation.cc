#include "src/storage/persistent_relation.h"

#include <algorithm>
#include <cstring>

#include "src/data/unify.h"
#include "src/storage/storage_manager.h"
#include "src/util/logging.h"

namespace coral {

namespace {

constexpr char kTagInt = 'I';
constexpr char kTagDouble = 'D';
constexpr char kTagString = 'S';
constexpr char kTagAtom = 'A';
constexpr char kTagBigInt = 'B';

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}

}  // namespace

bool SerializeValue(const Arg* value, std::string* out) {
  switch (value->kind()) {
    case ArgKind::kInt: {
      out->push_back(kTagInt);
      int64_t v = ArgCast<IntArg>(value)->value();
      out->append(reinterpret_cast<const char*>(&v), 8);
      return true;
    }
    case ArgKind::kDouble: {
      out->push_back(kTagDouble);
      double v = ArgCast<DoubleArg>(value)->value();
      out->append(reinterpret_cast<const char*>(&v), 8);
      return true;
    }
    case ArgKind::kString: {
      out->push_back(kTagString);
      const std::string& s = ArgCast<StringArg>(value)->value();
      PutU32(out, static_cast<uint32_t>(s.size()));
      out->append(s);
      return true;
    }
    case ArgKind::kBigInt: {
      out->push_back(kTagBigInt);
      std::string s = ArgCast<BigIntArg>(value)->value().ToString();
      PutU32(out, static_cast<uint32_t>(s.size()));
      out->append(s);
      return true;
    }
    case ArgKind::kAtomOrFunctor: {
      const auto* f = ArgCast<FunctorArg>(value);
      if (f->arity() != 0) return false;  // functor terms not storable
      out->push_back(kTagAtom);
      PutU32(out, static_cast<uint32_t>(f->name().size()));
      out->append(f->name());
      return true;
    }
    default:
      return false;
  }
}

StatusOr<const Arg*> DeserializeValue(std::span<const char> in, size_t* pos,
                                      TermFactory* factory) {
  if (*pos >= in.size()) return Status::Corruption("truncated value");
  char tag = in[*pos];
  ++*pos;
  auto need = [&](size_t n) { return *pos + n <= in.size(); };
  switch (tag) {
    case kTagInt: {
      if (!need(8)) return Status::Corruption("truncated int");
      int64_t v;
      std::memcpy(&v, in.data() + *pos, 8);
      *pos += 8;
      return static_cast<const Arg*>(factory->MakeInt(v));
    }
    case kTagDouble: {
      if (!need(8)) return Status::Corruption("truncated double");
      double v;
      std::memcpy(&v, in.data() + *pos, 8);
      *pos += 8;
      return static_cast<const Arg*>(factory->MakeDouble(v));
    }
    case kTagString:
    case kTagAtom:
    case kTagBigInt: {
      if (!need(4)) return Status::Corruption("truncated length");
      uint32_t len;
      std::memcpy(&len, in.data() + *pos, 4);
      *pos += 4;
      if (!need(len)) return Status::Corruption("truncated payload");
      std::string_view payload(in.data() + *pos, len);
      *pos += len;
      if (tag == kTagString) {
        return static_cast<const Arg*>(factory->MakeString(payload));
      }
      if (tag == kTagAtom) {
        return static_cast<const Arg*>(factory->MakeAtom(payload));
      }
      CORAL_ASSIGN_OR_RETURN(BigInt big, BigInt::FromString(payload));
      return static_cast<const Arg*>(factory->MakeBigInt(big));
    }
    default:
      return Status::Corruption("unknown value tag");
  }
}

StatusOr<std::string> SerializeTuple(const Tuple* t) {
  std::string out;
  uint16_t arity = static_cast<uint16_t>(t->arity());
  out.append(reinterpret_cast<const char*>(&arity), 2);
  for (uint32_t i = 0; i < t->arity(); ++i) {
    if (!SerializeValue(t->arg(i), &out)) {
      return Status::InvalidArgument(
          "persistent relations store primitive-typed fields only "
          "(paper §3.2); cannot store " + t->arg(i)->ToString());
    }
  }
  return out;
}

StatusOr<const Tuple*> DeserializeTuple(std::span<const char> rec,
                                        TermFactory* factory) {
  if (rec.size() < 2) return Status::Corruption("truncated tuple");
  uint16_t arity;
  std::memcpy(&arity, rec.data(), 2);
  size_t pos = 2;
  std::vector<const Arg*> args(arity);
  for (uint16_t i = 0; i < arity; ++i) {
    CORAL_ASSIGN_OR_RETURN(args[i], DeserializeValue(rec, &pos, factory));
  }
  return factory->MakeTuple(args);
}

bool PersistentRelation::CanStore(const Tuple* t) {
  if (!t->IsGround()) return false;
  std::string scratch;
  for (uint32_t i = 0; i < t->arity(); ++i) {
    scratch.clear();
    if (!SerializeValue(t->arg(i), &scratch)) return false;
  }
  return true;
}

Status PersistentRelation::ValidateInsert(const Tuple* t) const {
  if (sm_->read_only()) {
    return Status::FailedPrecondition(
        "storage is read-only (write-ahead log unavailable)");
  }
  if (!sm_->io_error().ok()) {
    return Status::IOError("mutation refused after storage I/O failure: " +
                           sm_->io_error().ToString());
  }
  if (!CanStore(t)) {
    return Status::InvalidArgument(
        "persistent relation " + name() +
        " stores only ground tuples of primitive-typed fields "
        "(paper §3.2)");
  }
  return Status::OK();
}

std::string PersistentRelation::KeyFor(const StoredIndex& idx,
                                       const Tuple* t) const {
  std::string key;
  for (uint32_t c : idx.cols) {
    bool ok = SerializeValue(t->arg(c), &key);
    CORAL_CHECK(ok);
  }
  return key;
}

std::optional<std::string> PersistentRelation::KeyForPattern(
    const StoredIndex& idx, std::span<const TermRef> pattern) const {
  std::string key;
  VarRenamer renamer;
  for (uint32_t c : idx.cols) {
    if (c >= pattern.size()) return std::nullopt;
    TermRef r = Deref(pattern[c].term, pattern[c].env);
    // Resolve through bindings; only ground primitives are usable keys.
    const Arg* v = ResolveTerm(r.term, r.env, sm_->factory(), &renamer);
    if (!v->IsGround() || !SerializeValue(v, &key)) return std::nullopt;
  }
  return key;
}

StatusOr<Rid> PersistentRelation::FindRid(const Tuple* t) const {
  CORAL_CHECK(!indexes_.empty());
  const StoredIndex& primary = indexes_[0];
  std::string key = KeyFor(primary, t);
  std::vector<Rid> rids;
  CORAL_RETURN_IF_ERROR(primary.tree->Lookup(key, &rids));
  for (Rid rid : rids) {
    CORAL_ASSIGN_OR_RETURN(std::vector<char> rec, heap_->Read(rid));
    if (rec.empty()) continue;
    CORAL_ASSIGN_OR_RETURN(const Tuple* stored,
                           DeserializeTuple(rec, sm_->factory()));
    if (stored == t) return rid;  // ground tuples are interned
  }
  return Rid{};
}

bool PersistentRelation::Contains(const Tuple* t) const {
  if (!t->IsGround()) return false;
  auto rid = FindRid(t);
  if (!rid.ok()) {
    // An unreadable page must not abort the process; latch the error and
    // report "absent" — Commit will refuse while the latch stands.
    sm_->RecordIoError(rid.status());
    return false;
  }
  return rid->valid();
}

void PersistentRelation::DoInsert(const Tuple* t) {
  CORAL_CHECK(CanStore(t))
      << "persistent relation " << name()
      << " can store only ground tuples of primitive-typed fields";
  auto rec = SerializeTuple(t);
  CORAL_CHECK(rec.ok()) << rec.status().ToString();
  auto rid = heap_->Append(std::span<const char>(rec->data(), rec->size()));
  if (!rid.ok()) {
    sm_->RecordIoError(rid.status());
    return;
  }
  for (StoredIndex& idx : indexes_) {
    Status st = idx.tree->Insert(KeyFor(idx, t), *rid);
    if (!st.ok()) {
      sm_->RecordIoError(st);
      return;
    }
  }
  ++count_;
  PersistRoots();
}

bool PersistentRelation::DoDelete(const Tuple* t) {
  if (!t->IsGround()) return false;
  auto rid = FindRid(t);
  if (!rid.ok()) {
    sm_->RecordIoError(rid.status());
    return false;
  }
  if (!rid->valid()) return false;
  auto removed = heap_->Delete(*rid);
  if (!removed.ok()) {
    sm_->RecordIoError(removed.status());
    return false;
  }
  for (StoredIndex& idx : indexes_) {
    Status st = idx.tree->Delete(KeyFor(idx, t), *rid).status();
    if (!st.ok()) {
      sm_->RecordIoError(st);
      return false;
    }
  }
  --count_;
  PersistRoots();
  return true;
}

void PersistentRelation::PersistRoots() {
  // B-tree roots move on splits; keep the catalog entry current.
  RelationMeta* meta = sm_->catalog()->Find(name(), arity());
  CORAL_CHECK(meta != nullptr);
  bool changed = meta->count != count_;
  meta->count = count_;
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (meta->indexes[i].root != indexes_[i].tree->root()) {
      meta->indexes[i].root = indexes_[i].tree->root();
      changed = true;
    }
  }
  (void)changed;  // catalog persisted wholesale on SaveCatalog/Close
}

namespace {

/// Full-scan iterator deserializing records on demand.
class PersistentScanIterator : public TupleIterator {
 public:
  PersistentScanIterator(HeapFile::Iterator it, TermFactory* factory)
      : it_(std::move(it)), factory_(factory) {}

  const Tuple* Next() override {
    std::span<const char> rec;
    Rid rid;
    while (it_.Next(&rec, &rid)) {
      auto t = DeserializeTuple(rec, factory_);
      if (!t.ok()) {
        status_ = t.status();
        return nullptr;
      }
      return *t;
    }
    if (!it_.status().ok()) status_ = it_.status();
    return nullptr;
  }
  const Status& status() const override { return status_; }

 private:
  HeapFile::Iterator it_;
  TermFactory* factory_;
  Status status_;
};

/// The iterator of a lookup that failed: no tuples, only the error.
class FailedIterator : public TupleIterator {
 public:
  explicit FailedIterator(Status status) : status_(std::move(status)) {}
  const Tuple* Next() override { return nullptr; }
  const Status& status() const override { return status_; }

 private:
  Status status_;
};

}  // namespace

std::unique_ptr<TupleIterator> PersistentRelation::ScanRange(
    Mark from, Mark to) const {
  if (from > 0 || to == 0) return std::make_unique<EmptyIterator>();
  return std::make_unique<PersistentScanIterator>(heap_->Scan(),
                                                  sm_->factory());
}

std::unique_ptr<TupleIterator> PersistentRelation::Select(
    std::span<const TermRef> pattern, Mark from, Mark to) const {
  if (from > 0 || to == 0) return std::make_unique<EmptyIterator>();
  // Widest usable index wins.
  const StoredIndex* best = nullptr;
  std::string best_key;
  for (const StoredIndex& idx : indexes_) {
    if (best != nullptr && idx.cols.size() <= best->cols.size()) continue;
    std::optional<std::string> key = KeyForPattern(idx, pattern);
    if (key.has_value()) {
      best = &idx;
      best_key = std::move(*key);
    }
  }
  if (best == nullptr) return ScanRange(0, kMaxMark);
  std::vector<const Tuple*> tuples;
  Status st = FetchMatches(*best, best_key, &tuples);
  if (!st.ok()) return std::make_unique<FailedIterator>(std::move(st));
  return std::make_unique<VectorIterator>(std::move(tuples));
}

bool PersistentRelation::ProbeArgs(std::span<const uint32_t> cols,
                                   std::span<const Arg* const> key, Mark from,
                                   Mark to,
                                   std::vector<const Tuple*>* out) const {
  if (from > 0 || to == 0) return true;  // the window is empty
  auto pos_of = [&](uint32_t c) {
    return static_cast<size_t>(std::find(cols.begin(), cols.end(), c) -
                               cols.begin());
  };
  // The widest B-tree whose columns the probe binds, as in HashRelation.
  const StoredIndex* best = nullptr;
  for (const StoredIndex& idx : indexes_) {
    if (best != nullptr && idx.cols.size() <= best->cols.size()) continue;
    if (std::all_of(idx.cols.begin(), idx.cols.end(),
                    [&](uint32_t c) { return pos_of(c) < cols.size(); })) {
      best = &idx;
    }
  }
  if (best == nullptr) return false;
  std::string idx_key;
  for (uint32_t c : best->cols) {
    // Key values are ground. One that no stored field can hold (a
    // compound term) matches nothing.
    if (!SerializeValue(key[pos_of(c)], &idx_key)) return true;
  }
  return FetchMatches(*best, idx_key, out).ok();
}

Status PersistentRelation::FetchMatches(const StoredIndex& idx,
                                        const std::string& key,
                                        std::vector<const Tuple*>* out) const {
  const size_t base = out->size();
  std::vector<Rid> rids;
  Status st = idx.tree->Lookup(key, &rids);
  for (size_t i = 0; st.ok() && i < rids.size(); ++i) {
    StatusOr<std::vector<char>> rec = heap_->Read(rids[i]);
    if (!rec.ok()) {
      st = rec.status();
    } else if (!rec->empty()) {  // an empty record is tombstoned
      StatusOr<const Tuple*> t = DeserializeTuple(*rec, sm_->factory());
      if (t.ok()) {
        out->push_back(*t);
      } else {
        st = t.status();
      }
    }
  }
  if (!st.ok()) {
    sm_->RecordIoError(st);
    out->resize(base);
  }
  return st;
}

Status PersistentRelation::AddIndex(std::vector<uint32_t> cols) {
  for (const StoredIndex& idx : indexes_) {
    if (idx.cols == cols) return Status::OK();
  }
  for (uint32_t c : cols) {
    if (c >= arity()) {
      return Status::OutOfRange("index column out of range");
    }
  }
  CORAL_ASSIGN_OR_RETURN(BTree tree, BTree::Create(sm_->pool()));
  StoredIndex idx{cols, std::make_unique<BTree>(std::move(tree))};
  // Backfill.
  HeapFile::Iterator it = heap_->Scan();
  std::span<const char> rec;
  Rid rid;
  while (it.Next(&rec, &rid)) {
    CORAL_ASSIGN_OR_RETURN(const Tuple* t,
                           DeserializeTuple(rec, sm_->factory()));
    CORAL_RETURN_IF_ERROR(idx.tree->Insert(KeyFor(idx, t), rid));
  }
  CORAL_RETURN_IF_ERROR(it.status());
  indexes_.push_back(std::move(idx));
  RelationMeta* meta = sm_->catalog()->Find(name(), arity());
  CORAL_CHECK(meta != nullptr);
  meta->indexes.push_back(
      IndexMeta{indexes_.back().cols, indexes_.back().tree->root()});
  return sm_->SaveCatalog();
}

}  // namespace coral
