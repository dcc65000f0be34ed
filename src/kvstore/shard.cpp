#include "kvstore/shard.hpp"

#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/fault.hpp"
#include "common/hints.hpp"
#include "common/timing.hpp"

namespace proteus::kvstore {

namespace {

/** SplitMix64 finalizer: slot spread for adversarial key patterns. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

unsigned
checkedLog2(unsigned log2_value, const char *what)
{
    // >= 32 is either a config typo or would shift into UB territory;
    // fail loudly like the rest of the subsystem's range checks.
    if (log2_value == 0 || log2_value >= 32) {
        throw std::invalid_argument(std::string("Shard: ") + what +
                                    " must be in [1, 31]");
    }
    return log2_value;
}

inline bool
stateIsValue(std::uint64_t state)
{
    return slotStateIsValue(state);
}

/** Non-transactional load of a TM-visible slot word, for hints only.
 *  Every backend accesses data words atomically, so the relaxed load
 *  races with nothing; its value steers a prefetch and nothing else. */
inline std::uint64_t
peekWord(const std::uint64_t &word)
{
    return reinterpret_cast<const std::atomic<std::uint64_t> &>(word).load(
        std::memory_order_relaxed);
}

/** Slots prefetchValue peeks at from the home slot before giving up. */
constexpr std::size_t kPeekSlots = 4;

/**
 * Test hook: an armed point sleeps arg() microseconds where a blob
 * decode holds a handle it read before pinning, the window in which
 * that handle's blob can be recycled (see Shard::decodeValueTx).
 */
void
blobPinWindow()
{
    static fault::FaultPoint window("shard.blob_pin_window");
    if (window.fire() != 0)
        std::this_thread::sleep_for(std::chrono::microseconds(window.arg()));
}

/** Add a slot's transition from `pre` (kEmpty, kTombstone or a value
 *  state) to `post` (a value state or kTombstone) to `tally`. */
inline void
tallyTransition(Shard::WriteTally *tally, std::uint64_t pre,
                std::uint64_t post)
{
    if (tally == nullptr)
        return;
    if (pre == kEmpty)
        ++tally->newSlots;
    tally->tombstones += static_cast<std::int64_t>(post == kTombstone) -
                         static_cast<std::int64_t>(pre == kTombstone);
}

/** A pre-image holds a value whose deadline has not passed. */
inline bool
liveImage(const SlotImage &image)
{
    return stateIsValue(image.state) &&
           (image.expiry == 0 || image.expiry > nowNanos());
}

/** Numeric decode of an inline ValueRef (zero-padded to 8 bytes). */
inline std::uint64_t
inlineNumeric(ValueRef ref)
{
    const std::size_t len = inlineRefLen(ref);
    if (len == 0)
        return 0;
    if (len >= 8)
        return ref; // unreachable for well-formed inline refs
    return ref & (~std::uint64_t{0} >> (64 - 8 * len));
}

} // namespace

Shard::Shard(ShardOptions options)
    : poly_(options.initial, {},
            checkedLog2(options.log2Orecs, "log2Orecs")),
      options_(options),
      writers_(std::make_unique<WriterRecord[]>(tm::kMaxThreads))
{
    const unsigned log2_slots =
        checkedLog2(options.log2Slots, "log2Slots");
    if (options.maxLog2Slots == 0) {
        maxSlots_ = std::numeric_limits<std::size_t>::max();
    } else {
        if (options.maxLog2Slots < log2_slots ||
            options.maxLog2Slots >= 32) {
            throw std::invalid_argument(
                "Shard: maxLog2Slots must be 0 or in "
                "[log2Slots, 31]");
        }
        maxSlots_ = std::size_t{1} << options.maxLog2Slots;
    }
    if (options_.migrateChunkSlots == 0 ||
        options_.sweepChunkSlots == 0) {
        throw std::invalid_argument(
            "Shard: maintenance chunk sizes must be >= 1");
    }
    arena_.attachObs(options_.recorder, options_.commitSeq,
                     options_.shardIndex);
    tables_.push_back(
        std::make_unique<ShardTable>(std::size_t{1} << log2_slots));
    epochs_.push_back(std::make_unique<TableEpoch>(
        TableEpoch{tables_.back().get(), nullptr}));
    // Quiesced raw store: no transaction can run before construction
    // returns.
    epochWord_ = reinterpret_cast<std::uint64_t>(epochs_.back().get());
    epochMirror_.store(epochs_.back().get(), std::memory_order_release);
}

Shard::~Shard() = default;

TableEpoch *
Shard::epochTx(polytm::Tx &tx)
{
    return reinterpret_cast<TableEpoch *>(tx.readWord(&epochWord_));
}

std::size_t
Shard::homeSlot(const ShardTable &table, std::uint64_t key)
{
    return static_cast<std::size_t>(mix64(key)) & table.mask;
}

std::uint64_t
Shard::keyHash(std::uint64_t key)
{
    return mix64(key);
}

std::size_t
Shard::probe(polytm::Tx &tx, ShardTable &table, std::uint64_t key,
             bool *found, std::uint64_t *state)
{
    *found = false;
    std::size_t insert_at = table.slots; // first tombstone seen, if any
    std::size_t slot = homeSlot(table, key);
    for (std::size_t step = 0; step < table.slots; ++step) {
        const std::size_t next = (slot + 1) & table.mask;
        // Most probes end at the home slot (a hit or a virgin empty
        // slot). One that has left it is streaming down a chain: pull
        // the next record in early so the TM read barrier hits warm
        // cache.
        if (step != 0)
            PROTEUS_PREFETCH(&table.records[next]);
        SlotRecord &rec = table.records[slot];
        const std::uint64_t word = tx.readWord(&rec.state);
        if (word == kEmpty) {
            if (insert_at < table.slots) {
                *state = kTombstone;
                return insert_at;
            }
            *state = kEmpty;
            return slot;
        }
        if (PROTEUS_UNLIKELY(word == kTombstone)) {
            if (insert_at == table.slots)
                insert_at = slot;
        } else if (PROTEUS_LIKELY(tx.readWord(&rec.key) == key)) {
            // kFull/kFullRef/kPendingInsert all carry a valid key word.
            *found = true;
            *state = word;
            return slot;
        }
        slot = next;
    }
    *state = kTombstone;
    return insert_at; // table.slots when the table has no reusable slot
}

void
Shard::prefetchSlot(std::uint64_t key) const
{
    const ShardTable &table =
        *epochMirror_.load(std::memory_order_acquire)->live;
    const SlotRecord &rec = table.records[homeSlot(table, key)];
    prefetchLines(&rec, sizeof(SlotRecord));
}

void
Shard::prefetchValue(std::uint64_t key) const
{
    const ShardTable &table =
        *epochMirror_.load(std::memory_order_acquire)->live;
    std::size_t slot = homeSlot(table, key);
    for (std::size_t step = 0; step < kPeekSlots; ++step) {
        const SlotRecord &rec = table.records[slot];
        const std::uint64_t state = peekWord(rec.state);
        if (state == kEmpty)
            return;
        if (peekWord(rec.key) == key) {
            if (state == kFullRef)
                ValueArena::prefetchBlob(peekWord(rec.value));
            return;
        }
        slot = (slot + 1) & table.mask;
    }
}

bool
Shard::resolveSlotLiveTx(polytm::Tx &tx, ShardTable &table,
                         std::size_t slot, LiveValue *out,
                         const ReadView &view)
{
    const auto expired = [](std::uint64_t deadline) {
        return deadline != 0 && deadline <= nowNanos();
    };
    SlotRecord &rec = table.records[slot];
    const std::uint64_t word = tx.readWord(&rec.intent);
    const std::uint64_t state = tx.readWord(&rec.state);
    if (PROTEUS_LIKELY(word == 0)) {
        if (!stateIsValue(state))
            return false;
        const std::uint64_t deadline = tx.readWord(&rec.expiry);
        if (PROTEUS_UNLIKELY(expired(deadline)))
            return false; // lazy TTL: expired reads as absent
        if (out) {
            out->state = state;
            out->value = tx.readWord(&rec.value);
            out->expiry = deadline;
        }
        return true;
    }
    WriteIntent *intent = intentOf(word);
    CommitRecord *record =
        intent->record.load(std::memory_order_acquire);
    const std::uint64_t tag = intentEpochTag(word);
    bool waited = false;
    for (;;) {
        // Payload fields must be read before the status word: fields
        // of epoch E freeze before E's flip and are only rewritten
        // after the next re-arm, so a status that still reads
        // (E, kCommitted) at a later point proves the earlier field
        // loads saw epoch E's frozen payload. Every field store is a
        // release store sequenced after its re-arm's status store, so
        // an acquire load that reads a rewritten field makes that
        // re-arm visible to the status load below, which then rejects.
        const std::uint64_t new_state =
            intent->newState.load(std::memory_order_acquire);
        const std::uint64_t new_value =
            intent->newValue.load(std::memory_order_acquire);
        const std::uint64_t new_expiry =
            intent->newExpiry.load(std::memory_order_acquire);
        const std::uint64_t status =
            record ? record->status.load(std::memory_order_acquire)
                   : 0;
        const bool same_epoch =
            record && (CommitRecord::epochOf(status) & 0xffff) == tag;
        const std::uint64_t verdict = CommitRecord::stateOf(status);
        if (same_epoch && verdict == CommitRecord::kCommitted) {
            // Post-image wins from the commit point on — but a
            // snapshot view excludes a commit sequenced after its
            // sampled read timestamp (the reader's round began before
            // this commit existed; its trailing sequence check keeps
            // the exclusion consistent across slots and shards).
            bool include = true;
            if (view.mode == ReadView::Mode::kSnapshot) {
                const std::uint64_t cword =
                    record->commitSeq.load(std::memory_order_acquire);
                include =
                    CommitRecord::seqEpochTag(cword) == (tag & 0xffff) &&
                    CommitRecord::seqOf(cword) <= view.seq;
            }
            if (include) {
                if (!stateIsValue(new_state) || expired(new_expiry))
                    return false;
                if (out) {
                    out->state = new_state;
                    out->value = new_value;
                    out->expiry = new_expiry;
                }
                return true;
            }
            break; // pre-image: commit is after this snapshot
        }
        if (same_epoch && verdict == CommitRecord::kPending) {
            // In-flight. kSettle always waits the verdict out;
            // kSnapshot waits only when the commit already reserved a
            // sequence inside our snapshot (the flip is then at most
            // a few plain stores away) — an unreserved sequence is
            // provably ordered after our sampled timestamp, so the
            // pre-image is final for this view. kLatest never waits.
            bool wait = view.mode == ReadView::Mode::kSettle;
            if (view.mode == ReadView::Mode::kSnapshot) {
                const std::uint64_t cword =
                    record->commitSeq.load(std::memory_order_acquire);
                wait =
                    CommitRecord::seqEpochTag(cword) == (tag & 0xffff) &&
                    CommitRecord::seqOf(cword) <= view.seq;
            }
            if (wait) {
                if (!waited) {
                    waited = true;
                    snapshotWaits_.fetch_add(
                        1, std::memory_order_relaxed);
                }
                std::this_thread::yield();
                continue;
            }
        }
        break;
    }
    // Pending-outside-view or aborted: the pre-image is the live
    // state. An epoch mismatch means the intent was recycled
    // underneath us; the republished word differs (epoch tag), so
    // this transaction's read-set validation rejects the commit and
    // the retry sees the slot's real state — pre-image junk never
    // escapes.
    if (!stateIsValue(state))
        return false;
    const std::uint64_t deadline = tx.readWord(&rec.expiry);
    if (expired(deadline))
        return false;
    if (out) {
        out->state = state;
        out->value = tx.readWord(&rec.value);
        out->expiry = deadline;
    }
    return true;
}

void
Shard::resolveForeignIntentTx(polytm::Tx &tx, ShardTable &table,
                              std::size_t slot, std::uint64_t word)
{
    WriteIntent *intent = intentOf(word);
    CommitRecord *record =
        intent->record.load(std::memory_order_acquire);
    SlotImage post;
    std::uint64_t status = 0;
    if (record) {
        // Fields before status, with acquire loads, as in
        // resolveSlotLiveTx: a matching (epoch, kCommitted) status read
        // afterwards proves the fields belonged to that frozen
        // generation.
        post.state = intent->newState.load(std::memory_order_acquire);
        post.value = intent->newValue.load(std::memory_order_acquire);
        post.expiry = intent->newExpiry.load(std::memory_order_acquire);
        status = record->status.load(std::memory_order_acquire);
    }
    const bool same_epoch =
        record &&
        (CommitRecord::epochOf(status) & 0xffff) == intentEpochTag(word);
    if (same_epoch &&
        CommitRecord::stateOf(status) == CommitRecord::kPending) {
        // Drop all TM resources and come back with backoff; the owner
        // needs this slot's universe only to finalize, and the commit
        // flip we are waiting for is a plain store.
        tx.retry();
    }
    // Aborted, or recycled underneath us: then this transaction fails
    // validation on the changed intent word and the fold rolls back.
    foldIntentTx(tx, table.records[slot],
                 same_epoch && CommitRecord::stateOf(status) ==
                                   CommitRecord::kCommitted,
                 post, kEmpty, nullptr);
}

void
Shard::foldIntentTx(polytm::Tx &tx, SlotRecord &rec, bool committed,
                    const SlotImage &post, std::uint64_t claimed,
                    WriteTally *tally)
{
    const std::uint64_t state = tx.readWord(&rec.state);
    const bool pending = state == kPendingInsert;
    std::uint64_t folded = state;
    if (committed) {
        // Only the words that change, as in landTx: the state and the
        // deadline (read once here) are compared, the value is not.
        folded = post.state;
        if (post.state != state)
            tx.writeWord(&rec.state, post.state);
        if (stateIsValue(post.state)) {
            tx.writeWord(&rec.value, post.value);
            if (tx.readWord(&rec.expiry) != post.expiry)
                tx.writeWord(&rec.expiry, post.expiry);
        }
    } else if (pending) {
        // Tombstone, never back to empty: concurrent probe chains may
        // already run past this slot.
        folded = kTombstone;
        tx.writeWord(&rec.state, kTombstone);
    }
    tx.writeWord(&rec.intent, 0);
    tallyTransition(tally, pending ? claimed : state, folded);
}

void
Shard::settleIntentTx(polytm::Tx &tx, WriteIntent *intent, bool committed,
                      WriteTally &tally)
{
    SlotRecord &rec = intent->table->records[intent->slot];
    if (intentOf(tx.readWord(&rec.intent)) != intent)
        return; // a helping writer already folded it
    const SlotImage post{intent->newState.load(std::memory_order_relaxed),
                         intent->newValue.load(std::memory_order_relaxed),
                         intent->newExpiry.load(std::memory_order_relaxed)};
    foldIntentTx(tx, rec, committed, post,
                 intent->claimedTombstone ? kTombstone : kEmpty, &tally);
}

Shard::SlotRef
Shard::writeLookup(polytm::Tx &tx, const CommitRecord *record,
                   std::uint64_t key, bool *found, WriteIntent **own,
                   std::uint64_t *state)
{
    if (own)
        *own = nullptr;
    TableEpoch *ep = epochTx(tx);
    const auto settle = [&](ShardTable &table, std::size_t slot,
                            std::uint64_t &slot_state) -> bool {
        // Resolve foreign intents until the slot is quiet or ours;
        // returns whether the key is (still) logically present there.
        for (;;) {
            const std::uint64_t word =
                tx.readWord(&table.records[slot].intent);
            if (word == 0)
                break;
            WriteIntent *intent = intentOf(word);
            if (record && intent->record.load(
                              std::memory_order_relaxed) == record) {
                // Ours — necessarily the current epoch: every intent
                // of the previous multiOp was cleared before re-arming.
                // (`own` is only optional for record==nullptr callers.)
                *own = intent;
                return true;
            }
            resolveForeignIntentTx(tx, table, slot, word);
            // The fold rewrote the state the probe read.
            slot_state = tx.readWord(&table.records[slot].state);
        }
        return stateIsValue(slot_state);
    };

    bool in_live = false;
    std::uint64_t live_state = kEmpty;
    const std::size_t live_slot =
        probe(tx, *ep->live, key, &in_live, &live_state);
    if (in_live) {
        *found = settle(*ep->live, live_slot, live_state);
        *state = live_state;
        return {ep->live, live_slot};
    }
    if (ep->old) {
        bool in_old = false;
        std::uint64_t old_state = kEmpty;
        const std::size_t old_slot =
            probe(tx, *ep->old, key, &in_old, &old_state);
        if (in_old && settle(*ep->old, old_slot, old_state)) {
            *found = true;
            *state = old_state;
            return {ep->old, old_slot};
        }
    }
    // Absent everywhere; inserts always target the live table.
    *found = false;
    *state = live_state;
    return {ep->live, live_slot};
}

template <typename Decode>
bool
Shard::decodeValueTx(polytm::Tx &tx, ShardTable &table, std::size_t slot,
                     LiveValue live, const ReadView &view, Decode &&decode)
{
    if (PROTEUS_LIKELY(live.state == kFull) || !valueRefIsBlob(live.value)) {
        decode(live); // no blob: nothing to pin
        return true;
    }
    // Every blob dereference runs inside this thread's reader-epoch
    // section (its slot was claimed at registerWorker; claiming again
    // is a load). Hot byte reads pin their whole body, and this pin
    // joins that section: `live` was read inside it. A pin that opens
    // the section here came after the read that produced `live`, so
    // that handle's blob may already be recycled. Re-resolve the slot
    // through the TM inside the section and decode what it holds now:
    // a handle read there is retired, if ever, after the section's
    // entry epoch, so its blob stays put until the pin ends.
    blobPinWindow();
    EpochPin pin(readerEpochs_,
                 *readerEpochs_.claimSlot(
                     static_cast<std::size_t>(tx.desc().tid)));
    if (pin.opened() && !resolveSlotLiveTx(tx, table, slot, &live, view))
        return false;
    decode(live);
    return true;
}

std::uint64_t
Shard::numericOf(std::uint64_t state, std::uint64_t value) const
{
    if (state == kFull)
        return value;
    return valueRefIsBlob(value) ? arena_.readBlobWord(value)
                                 : inlineNumeric(value);
}

void
Shard::bytesOf(std::uint64_t state, std::uint64_t value,
               std::string *out) const
{
    if (state == kFull) {
        // Numeric values read as their 8 raw bytes.
        out->resize(8);
        std::memcpy(out->data(), &value, 8);
    } else if (valueRefIsBlob(value)) {
        arena_.readBlob(value, out);
    } else {
        inlineRefCopy(value, out);
    }
}

bool
Shard::numericValueTx(polytm::Tx &tx, ShardTable &table,
                      std::size_t slot, LiveValue live,
                      std::uint64_t *out, const ReadView &view)
{
    return decodeValueTx(
        tx, table, slot, live, view, [&](const LiveValue &v) {
            if (out)
                *out = numericOf(v.state, v.value);
        });
}

bool
Shard::bytesValueTx(polytm::Tx &tx, ShardTable &table, std::size_t slot,
                    LiveValue live, std::string *out,
                    const ReadView &view)
{
    return decodeValueTx(
        tx, table, slot, live, view,
        [&](const LiveValue &v) { bytesOf(v.state, v.value, out); });
}

bool
Shard::lookupLiveTx(polytm::Tx &tx, std::uint64_t key, SlotRef *ref,
                    LiveValue *live, const ReadView &view)
{
    TableEpoch *ep = epochTx(tx);
    bool found = false;
    std::uint64_t state = kEmpty; // unused: resolveSlotLiveTx reads it
    std::size_t slot = probe(tx, *ep->live, key, &found, &state);
    ShardTable *table = ep->live;
    if (!found && ep->old) {
        slot = probe(tx, *ep->old, key, &found, &state);
        table = ep->old;
    }
    if (!found)
        return false;
    if (!resolveSlotLiveTx(tx, *table, slot, live, view))
        return false;
    *ref = {table, slot};
    return true;
}

bool
Shard::snapshotGetTx(polytm::Tx &tx, std::uint64_t key,
                     std::uint64_t *value, const ReadView &view)
{
    SlotRef ref;
    LiveValue live;
    if (!lookupLiveTx(tx, key, &ref, &live, view))
        return false;
    return numericValueTx(tx, *ref.table, ref.slot, live, value, view);
}

bool
Shard::snapshotGetBytesTx(polytm::Tx &tx, std::uint64_t key,
                          std::string *out, const ReadView &view)
{
    SlotRef ref;
    LiveValue live;
    if (!lookupLiveTx(tx, key, &ref, &live, view))
        return false;
    return bytesValueTx(tx, *ref.table, ref.slot, live, out, view);
}

SlotImage
Shard::slotImageTx(polytm::Tx &tx, ShardTable &table, std::size_t slot,
                   std::uint64_t state)
{
    SlotRecord &rec = table.records[slot];
    SlotImage image;
    image.state = state;
    if (stateIsValue(state)) {
        image.value = tx.readWord(&rec.value);
        image.expiry = tx.readWord(&rec.expiry);
    }
    return image;
}

Shard::WriteSite
Shard::writeSiteTx(polytm::Tx &tx, const CommitContext *prep,
                   std::uint64_t key)
{
    WriteSite site;
    std::uint64_t state = kEmpty;
    site.ref = writeLookup(tx, prep ? &prep->record : nullptr, key,
                           &site.found, &site.own, &state);
    if (site.own) {
        // Read-your-writes: the composite's own post-image so far.
        site.pre = {site.own->newState.load(std::memory_order_relaxed),
                    site.own->newValue.load(std::memory_order_relaxed),
                    site.own->newExpiry.load(std::memory_order_relaxed)};
    } else if (site.ref.slot != site.ref.table->slots) {
        site.pre = slotImageTx(tx, *site.ref.table, site.ref.slot, state);
    }
    return site;
}

void
Shard::landTx(polytm::Tx &tx, const WriteSite &site, std::uint64_t key,
              const SlotImage &post, CommitContext *prep, WriteTally *tally,
              std::vector<std::uint64_t> *reclaim)
{
    // The pre-image's blob is garbage once this write commits (an own
    // intent's staged one included; on an abort the caller unstages
    // its staged values and drops the reclaim list instead).
    if (reclaim && site.pre.state == kFullRef)
        reclaim->push_back(site.pre.value);
    if (site.own) {
        // Release: see resolveSlotLiveTx (a resolver holding a stale
        // word of a recycled intent must see the re-arm).
        site.own->newState.store(post.state, std::memory_order_release);
        site.own->newValue.store(post.value, std::memory_order_release);
        site.own->newExpiry.store(post.expiry, std::memory_order_release);
        return;
    }
    ShardTable &table = *site.ref.table;
    SlotRecord &rec = table.records[site.ref.slot];
    if (prep) {
        // An insert claims the live table's insert point, invisible
        // until the record commits; the fold tallies the claim.
        if (!site.found) {
            tx.writeWord(&rec.state, kPendingInsert);
            tx.writeWord(&rec.key, key);
        }
        installIntent(tx, *prep, table, site.ref.slot, post,
                      !site.found && site.pre.state == kTombstone);
        return;
    }
    // Write only the words that change. A skipped word was read by
    // this transaction (the pre-image above), so commit-time
    // validation covers it as a write would. An insert point's value
    // and deadline were never read: an insert writes them all.
    const bool pre_read = stateIsValue(site.pre.state);
    if (post.state != site.pre.state)
        tx.writeWord(&rec.state, post.state);
    if (stateIsValue(post.state)) {
        if (!pre_read || post.value != site.pre.value)
            tx.writeWord(&rec.value, post.value);
        if (!pre_read || post.expiry != site.pre.expiry)
            tx.writeWord(&rec.expiry, post.expiry);
    }
    if (!site.found)
        tx.writeWord(&rec.key, key);
    tallyTransition(tally, site.pre.state, post.state);
}

template <typename Decode>
bool
Shard::decodeSiteTx(polytm::Tx &tx, const WriteSite &site, Decode &&decode)
{
    if (!liveImage(site.pre))
        return false;
    const LiveValue live{site.pre.state, site.pre.value, site.pre.expiry};
    if (site.own) {
        decode(live);
        return true;
    }
    return decodeValueTx(tx, *site.ref.table, site.ref.slot, live,
                         ReadView{}, decode);
}

bool
Shard::putTx(polytm::Tx &tx, std::uint64_t key, std::uint64_t state,
             std::uint64_t value, std::uint64_t expiry, CommitContext *prep,
             WriteTally *tally, std::vector<std::uint64_t> *reclaim)
{
    const WriteSite site = writeSiteTx(tx, prep, key);
    if (!site.found && site.ref.slot == site.ref.table->slots)
        return false; // full
    landTx(tx, site, key, {state, value, expiry}, prep, tally, reclaim);
    return true;
}

bool
Shard::delTx(polytm::Tx &tx, std::uint64_t key, CommitContext *prep,
             WriteTally *tally, std::vector<std::uint64_t> *reclaim)
{
    const WriteSite site = writeSiteTx(tx, prep, key);
    if (!site.found)
        return false;
    // An expired value is already logically absent: reclaim the slot
    // but report the delete as a miss.
    landTx(tx, site, key, {kTombstone, 0, 0}, prep, tally, reclaim);
    return liveImage(site.pre);
}

bool
Shard::addTx(polytm::Tx &tx, std::uint64_t key, std::int64_t delta,
             CommitContext *prep, WriteTally *tally,
             std::vector<std::uint64_t> *reclaim, SlotImage *post)
{
    // One lookup for the read-modify-write (the transfer hot path),
    // not a read and a put walking the chain twice.
    const WriteSite site = writeSiteTx(tx, prep, key);
    if (!site.found && site.ref.slot == site.ref.table->slots)
        return false; // full
    // decodeValueTx re-reads a blob's slot, so a deadline that passed
    // in between reads as expired too.
    std::uint64_t current = 0;
    const bool live = decodeSiteTx(tx, site, [&](const LiveValue &v) {
        current = numericOf(v.state, v.value);
    });
    const SlotImage image{kFull, current + static_cast<std::uint64_t>(delta),
                          live ? site.pre.expiry : 0};
    landTx(tx, site, key, image, prep, tally, reclaim);
    if (post)
        *post = image;
    return true;
}

void
Shard::installIntent(polytm::Tx &tx, CommitContext &prep, ShardTable &table,
                     std::size_t slot, const SlotImage &post,
                     bool claimed_tombstone)
{
    WriteIntent *intent = prep.arena.alloc();
    intent->record.store(&prep.record, std::memory_order_relaxed);
    // Release: see resolveSlotLiveTx (a resolver holding a stale word
    // of this recycled intent must see the re-arm with the new fields).
    intent->newState.store(post.state, std::memory_order_release);
    intent->newValue.store(post.value, std::memory_order_release);
    intent->newExpiry.store(post.expiry, std::memory_order_release);
    intent->table = &table;
    intent->slot = slot;
    intent->claimedTombstone = claimed_tombstone;
    // The transactional store publishes the intent atomically with the
    // rest of this shard's prepare at commit time (release), so the
    // field stores above are visible to any resolver that acquires the
    // pointer. The published word carries the record's current epoch
    // so resolvers can reject recycled generations.
    const std::uint64_t epoch = CommitRecord::epochOf(
        prep.record.status.load(std::memory_order_relaxed));
    tx.writeWord(&table.records[slot].intent,
                 packIntentWord(intent, epoch & 0xffff));
}

bool
Shard::prepareGetTx(polytm::Tx &tx, const CommitContext *prep,
                    std::uint64_t key, std::uint64_t *value)
{
    return decodeSiteTx(tx, writeSiteTx(tx, prep, key),
                        [&](const LiveValue &v) {
                            if (value)
                                *value = numericOf(v.state, v.value);
                        });
}

bool
Shard::prepareGetBytesTx(polytm::Tx &tx, const CommitContext *prep,
                         std::uint64_t key, std::string *out)
{
    return decodeSiteTx(
        tx, writeSiteTx(tx, prep, key),
        [&](const LiveValue &v) { bytesOf(v.state, v.value, out); });
}

bool
Shard::get(polytm::ThreadToken &token, std::uint64_t key,
           std::uint64_t *value)
{
    bool ok = false;
    poly_.run(token, [&](polytm::Tx &tx) {
        ok = snapshotGetTx(tx, key, value, ReadView{});
    });
    return ok;
}

bool
Shard::put(polytm::ThreadToken &token, std::uint64_t key,
           std::uint64_t value, std::uint64_t expiry, std::uint64_t *lsn)
{
    return putLoop(token, key, kFull, value, expiry, lsn);
}

bool
Shard::putBytes(polytm::ThreadToken &token, std::uint64_t key,
                const void *data, std::size_t len, std::uint64_t expiry,
                std::uint64_t *lsn)
{
    return putRef(token, key, stageValue(token, data, len), expiry, lsn);
}

bool
Shard::putRef(polytm::ThreadToken &token, std::uint64_t key,
              ValueRef staged, std::uint64_t expiry, std::uint64_t *lsn)
{
    if (putLoop(token, key, kFullRef, staged, expiry, lsn))
        return true;
    unstageValue(token, staged); // never published
    return false;
}

bool
Shard::putLoop(polytm::ThreadToken &token, std::uint64_t key,
               std::uint64_t state, std::uint64_t value,
               std::uint64_t expiry, std::uint64_t *lsn)
{
    if (expiry != 0)
        noteTtlUsed();
    std::vector<std::uint64_t> &displaced = writerOf(token).displaced;
    for (;;) {
        // Capacity snapshot BEFORE the attempt: if a concurrent grow
        // doubles the table mid-attempt, tryGrow sees the enlarged
        // live table, returns immediately, and the retry runs against
        // it instead of failing a capped shard spuriously.
        const std::size_t cap = capacity();
        bool ok = false;
        WriteTally tally;
        poly_.run(token, [&](polytm::Tx &tx) {
            displaced.clear(); // retried attempts restart
            tally = {};
            ok = putTx(tx, key, state, value, expiry, nullptr, &tally,
                       &displaced);
            if (ok && lsn)
                *lsn = walTicketTx(tx);
        });
        if (ok) {
            finishWrite(token, tally);
            return true;
        }
        if (!tryGrow(token, cap))
            return false;
    }
}

bool
Shard::del(polytm::ThreadToken &token, std::uint64_t key,
           std::uint64_t *lsn)
{
    std::vector<std::uint64_t> &displaced = writerOf(token).displaced;
    bool ok = false;
    WriteTally tally;
    poly_.run(token, [&](polytm::Tx &tx) {
        displaced.clear();
        tally = {};
        ok = delTx(tx, key, nullptr, &tally, &displaced);
        if (lsn)
            *lsn = walTicketTx(tx);
    });
    // A del that found no value wrote nothing and ticks nothing. One
    // that did drives maintenance like every other write: a del-only
    // phase must still reclaim its retired blobs (and move an
    // in-flight migration).
    if (tally.tombstones != 0)
        finishWrite(token, tally);
    return ok;
}

ValueRef
Shard::stageValue(polytm::ThreadToken &token, const void *data,
                  std::size_t len)
{
    return len <= kValueRefInlineMax
               ? makeInlineRef(data, len)
               : arena_.allocBlob(data, len, writerOf(token).cache);
}

void
Shard::unstageValue(polytm::ThreadToken &token, ValueRef staged)
{
    arena_.freeBlob(staged, writerOf(token).cache);
}

void
Shard::retireValue(polytm::ThreadToken &token, ValueRef displaced)
{
    arena_.retire(displaced, writerOf(token).cache, readerEpochs_);
}

bool
Shard::getBytes(polytm::ThreadToken &token, std::uint64_t key,
                std::string *out)
{
    bool ok = false;
    poly_.run(token, [&](polytm::Tx &tx) {
        // Pin per attempt (never across a gate park): the section
        // covers every blob deref of this body.
        EpochPin pin(readerEpochs_, *token.epochSlot);
        ok = snapshotGetBytesTx(tx, key, out, ReadView{});
    });
    return ok;
}

std::size_t
Shard::scanTx(polytm::Tx &tx, std::uint64_t start_key, std::size_t limit,
              std::vector<std::pair<std::uint64_t, std::uint64_t>> *out,
              const ReadView &view)
{
    if (out)
        out->clear(); // retried attempts restart the collection
    return scanWalkTx(
        tx, start_key, limit, view,
        [&](ShardTable &table, std::size_t slot,
            const LiveValue &live) {
            std::uint64_t word = 0;
            if (!numericValueTx(tx, table, slot, live, &word, view))
                return false;
            if (out)
                out->emplace_back(tx.readWord(&table.records[slot].key),
                                  word);
            return true;
        });
}

std::size_t
Shard::scanEntriesTx(polytm::Tx &tx, std::uint64_t start_key,
                     std::size_t limit, std::vector<ScanEntry> *out,
                     const ReadView &view)
{
    if (out)
        out->clear();
    return scanWalkTx(
        tx, start_key, limit, view,
        [&](ShardTable &table, std::size_t slot,
            const LiveValue &live) {
            ScanEntry entry;
            entry.key = tx.readWord(&table.records[slot].key);
            if (!bytesValueTx(tx, table, slot, live, &entry.bytes,
                              view))
                return false;
            if (out)
                out->push_back(std::move(entry));
            return true;
        });
}

std::size_t
Shard::scan(polytm::ThreadToken &token, std::uint64_t start_key,
            std::size_t limit,
            std::vector<std::pair<std::uint64_t, std::uint64_t>> *out)
{
    // kSettle: every in-flight cross-shard commit the walk touches is
    // waited out to its terminal verdict, so one transaction sees each
    // commit all-or-nothing — no retry loop, no store-level sequence
    // needed. (A commit preparing *after* our reads invalidates the
    // scan's read-set through the intent words, so the TM retries it.)
    std::size_t count = 0;
    poly_.run(token, [&](polytm::Tx &tx) {
        count = scanTx(tx, start_key, limit, out,
                       ReadView{ReadView::Mode::kSettle, 0});
    });
    return count;
}

void
Shard::noteWrites(polytm::ThreadToken &token, const WriteTally &tally)
{
    if (tally.newSlots == 0 && tally.tombstones == 0)
        return; // overwrites and misses move no count
    ShardTable *live = epochMirror_.load(std::memory_order_acquire)->live;
    if (tally.newSlots != 0) {
        WriterRecord &writer = writerOf(token);
        if (writer.table != live) {
            // A grow or compaction replaced the table the held-back
            // inserts went to; the migration counts them again where
            // they land, so they are dropped, not carried over.
            writer.table = live;
            writer.pending = 0;
        }
        writer.pending += tally.newSlots;
        if (writer.pending >= consumedStep(live->slots)) {
            live->consumed.fetch_add(writer.pending,
                                     std::memory_order_relaxed);
            writer.pending = 0;
        }
    }
    if (tally.tombstones != 0)
        live->tombstones.fetch_add(tally.tombstones,
                                   std::memory_order_relaxed);
}

void
Shard::deregisterWorker(polytm::ThreadToken &token)
{
    WriterRecord &writer = writerOf(token);
    if (writer.pending != 0 &&
        writer.table == epochMirror_.load(std::memory_order_acquire)->live)
        writer.table->consumed.fetch_add(writer.pending,
                                         std::memory_order_relaxed);
    writer.pending = 0;
    arena_.flushCache(writer.cache);
    poly_.deregisterThread(token);
}

void
Shard::finishWrite(polytm::ThreadToken &token, const WriteTally &tally)
{
    // The displacing transaction committed: a pinned reader may still
    // be copying the handles, so they retire rather than recycle.
    for (const std::uint64_t ref : writerOf(token).displaced)
        retireValue(token, ref);
    noteWrites(token, tally);
    maintainTick(token);
}

std::size_t
Shard::capacity() const
{
    return epochMirror_.load(std::memory_order_acquire)->live->slots;
}

bool
Shard::migrationActive() const
{
    return epochMirror_.load(std::memory_order_acquire)->old != nullptr;
}

namespace {

/**
 * Pin a token for a maintenance span so its transactions never park
 * behind the parallelism gate while the thread holds a resource
 * others wait on (growMutex_, a claimed migration chunk) — the same
 * §4.2 escape hatch the multiOp paths use. Pins don't nest: a caller
 * that is itself pinned (a multiOp's grow-retry) gets transiently
 * unpinned at this guard's exit, which is safe because every
 * poly_.run between here and the outer span's end is itself guarded.
 */
class PinGuard
{
  public:
    PinGuard(polytm::PolyTm &poly, int tid) : poly_(poly), tid_(tid)
    {
        poly_.setPinned(tid_, true);
    }
    ~PinGuard() { poly_.setPinned(tid_, false); }

  private:
    polytm::PolyTm &poly_;
    int tid_;
};

} // namespace

void
Shard::publishEpoch(polytm::ThreadToken &token, TableEpoch *next)
{
    // Pinned: this runs under growMutex_, and a publisher parked by a
    // shrunk parallelism degree would stall every grower behind the
    // mutex until the next retune.
    PinGuard pin(poly_, token.tid);
    poly_.run(token, [&](polytm::Tx &tx) {
        tx.writeWord(&epochWord_,
                     reinterpret_cast<std::uint64_t>(next));
    });
    epochMirror_.store(next, std::memory_order_release);
}

void
Shard::startMigrationLocked(polytm::ThreadToken &token,
                            ShardTable *source, std::size_t new_slots)
{
    // growMutex_ held by the caller; `source` is the live table and
    // no migration is in flight. Set up the source's chunk accounting
    // before anyone can claim a chunk.
    const std::size_t chunk = options_.migrateChunkSlots;
    source->totalChunks = (source->slots + chunk - 1) / chunk;
    source->chunkDone =
        std::make_unique<std::atomic<std::uint8_t>[]>(
            source->totalChunks);
    source->migrateCursor.store(0, std::memory_order_relaxed);
    source->chunksDone.store(0, std::memory_order_relaxed);
    tables_.push_back(std::make_unique<ShardTable>(new_slots));
    epochs_.push_back(std::make_unique<TableEpoch>(
        TableEpoch{tables_.back().get(), source}));
    publishEpoch(token, epochs_.back().get());
}

bool
Shard::tombstoneHeavy(const ShardTable &live)
{
    const std::int64_t tombs =
        live.tombstones.load(std::memory_order_relaxed);
    const auto consumed = static_cast<std::int64_t>(
        live.consumed.load(std::memory_order_relaxed));
    // Half-or-more of the consumed slots are garbage: a same-size
    // table holds the survivors comfortably, a doubling would mostly
    // duplicate empty space.
    return tombs > 0 && tombs * 2 >= consumed;
}

bool
Shard::growLocked(polytm::ThreadToken &token, std::size_t full_capacity)
{
    // growMutex_ held by the caller.
    TableEpoch *cur = epochMirror_.load(std::memory_order_acquire);
    if (cur->live->slots > full_capacity)
        return true; // someone already grew past the reported size
    if (cur->live->slots >= maxSlots_)
        return false; // capped: the caller's op has genuinely failed
    startMigrationLocked(token, cur->live, cur->live->slots * 2);
    growCount_.fetch_add(1, std::memory_order_relaxed);
    trace(obs::TraceKind::kGrow, cur->live->slots,
          cur->live->slots * 2);
    return true;
}

void
Shard::compactLocked(polytm::ThreadToken &token)
{
    TableEpoch *cur = epochMirror_.load(std::memory_order_acquire);
    startMigrationLocked(token, cur->live, cur->live->slots);
    compactCount_.fetch_add(1, std::memory_order_relaxed);
    trace(obs::TraceKind::kCompact, cur->live->slots);
}

bool
Shard::tryGrow(polytm::ThreadToken &token, std::size_t full_capacity)
{
    bool compacted = false;
    for (;;) {
        {
            std::lock_guard<std::mutex> lk(growMutex_);
            TableEpoch *cur =
                epochMirror_.load(std::memory_order_acquire);
            if (cur->live->slots > full_capacity)
                return true; // a concurrent grow already helped
            if (!cur->old) {
                if (compacted) {
                    // Our compaction drained: the tombstones it shed
                    // are insert room now — let the caller retry.
                    return true;
                }
                if (cur->live->slots < maxSlots_)
                    return growLocked(token, full_capacity);
                // Capped. Delete churn can still fill a pinned table
                // with tombstones; a same-size compacting migration
                // recovers them. Only a table full of *live* entries
                // is a genuine failure. (The heuristic count resets
                // to truth through the migration, so a drifted-high
                // estimate costs at most one wasted compaction.)
                if (!tombstoneHeavy(*cur->live))
                    return false;
                compactLocked(token);
                compacted = true;
            }
        }
        // A migration is in flight: help drain it, then re-check.
        migrateChunk(token);
    }
}

void
Shard::drainMigration(polytm::ThreadToken &token)
{
    while (migrationActive()) {
        migrateChunk(token);
        std::this_thread::yield();
    }
}

bool
Shard::migrateChunk(polytm::ThreadToken &token)
{
    TableEpoch *ep = epochMirror_.load(std::memory_order_acquire);
    ShardTable *old = ep->old;
    if (!old)
        return false;
    // Pinned for the claim-to-completion span: a claimer parked by a
    // shrunk parallelism degree would strand its chunk, wedging
    // migration completion (and every tryGrow looping on it) until
    // the next retune.
    PinGuard pin(poly_, token.tid);
    const std::size_t chunk = options_.migrateChunkSlots;
    const std::size_t begin =
        old->migrateCursor.fetch_add(chunk, std::memory_order_acq_rel);
    if (begin >= old->slots) {
        // Someone else claimed the tail; migration finishes when the
        // last claimed chunk lands.
        std::this_thread::yield();
        return migrationActive();
    }
    const std::size_t end =
        begin + chunk < old->slots ? begin + chunk : old->slots;

    std::vector<std::uint64_t> reclaim; // expired entries' blobs
    bool stalled = false;
    std::size_t consumed_live = 0;
    poly_.run(token, [&](polytm::Tx &tx) {
        reclaim.clear(); // retried attempts restart
        stalled = false;
        consumed_live = 0;
        TableEpoch *cur = epochTx(tx);
        if (cur->old != old)
            return; // migration already finished under us
        ShardTable &live = *cur->live;
        const auto migrate_slot = [&](std::size_t slot) -> bool {
            SlotRecord &src = old->records[slot];
            std::uint64_t state = tx.readWord(&src.state);
            // Empty and tombstone slots never carry an intent: one
            // read skips them.
            if (state == kEmpty || state == kTombstone)
                return true;
            const std::uint64_t word = tx.readWord(&src.intent);
            if (word != 0) {
                resolveForeignIntentTx(tx, *old, slot, word);
                state = tx.readWord(&src.state);
            }
            if (!stateIsValue(state))
                return true;
            const std::uint64_t value = tx.readWord(&src.value);
            const std::uint64_t deadline = tx.readWord(&src.expiry);
            if (deadline != 0 && deadline <= nowNanos()) {
                // Expired: drop instead of moving.
                tx.writeWord(&src.state, kTombstone);
                if (state == kFullRef)
                    reclaim.push_back(value);
                return true;
            }
            const std::uint64_t key = tx.readWord(&src.key);
            bool found = false;
            std::uint64_t dst_state = kEmpty;
            const std::size_t dst = probe(tx, live, key, &found, &dst_state);
            if (found) {
                // Legitimately reachable when a stall rewind makes
                // two claimers re-process overlapping ranges: the
                // live copy is the relocated (or newer) one — drop
                // the old-table copy.
                tx.writeWord(&src.state, kTombstone);
                if (state == kFullRef)
                    reclaim.push_back(value);
                return true;
            }
            if (dst == live.slots) {
                // Live table out of room (only reachable on a capped
                // shard under extreme fill): park the rest of this
                // chunk; deletes/sweeps will free space eventually.
                stalled = true;
                return false;
            }
            SlotRecord &to = live.records[dst];
            if (dst_state == kEmpty)
                ++consumed_live;
            tx.writeWord(&to.state, state);
            tx.writeWord(&to.key, key);
            tx.writeWord(&to.value, value);
            tx.writeWord(&to.expiry, deadline);
            tx.writeWord(&src.state, kTombstone);
            return true;
        };
        for (std::size_t slot = begin; slot < end; ++slot)
            if (!migrate_slot(slot))
                return;
    });
    for (const std::uint64_t ref : reclaim)
        retireValue(token, ref); // a doomed scan may still hold them
    if (consumed_live > 0)
        epochMirror_.load(std::memory_order_acquire)
            ->live->consumed.fetch_add(consumed_live,
                                       std::memory_order_relaxed);
    if (stalled) {
        // Give the chunk back: relocated slots are tombstones now, so
        // re-processing is idempotent, and the rewind target is the
        // chunk's own begin, so claims stay chunk-aligned. CAS-min
        // keeps concurrent claims monotone.
        std::size_t cur =
            old->migrateCursor.load(std::memory_order_relaxed);
        while (cur > begin && !old->migrateCursor.compare_exchange_weak(
                                  cur, begin, std::memory_order_acq_rel))
            ;
        return true;
    }
    // Count each chunk exactly once: after a stall rewind the same
    // chunk can complete under several claimers, and double-counting
    // would let chunksDone reach the total while another chunk still
    // holds un-migrated keys — retiring the old table would lose them.
    const std::size_t chunk_index = begin / chunk;
    trace(obs::TraceKind::kMigrateChunk, chunk_index, consumed_live);
    if (old->chunkDone[chunk_index].exchange(
            1, std::memory_order_acq_rel) == 0) {
        if (old->chunksDone.fetch_add(1, std::memory_order_acq_rel) +
                1 ==
            old->totalChunks)
            finishMigration(token, old);
    }
    return migrationActive();
}

void
Shard::finishMigration(polytm::ThreadToken &token, ShardTable *old)
{
    std::lock_guard<std::mutex> lk(growMutex_);
    TableEpoch *cur = epochMirror_.load(std::memory_order_acquire);
    if (cur->old != old)
        return;
    epochs_.push_back(std::make_unique<TableEpoch>(
        TableEpoch{cur->live, nullptr}));
    publishEpoch(token, epochs_.back().get());
    recountTombstonesLocked(token, *cur->live);
}

void
Shard::recountTombstonesLocked(polytm::ThreadToken &token,
                               ShardTable &live)
{
    // Migration seeds the new table's tombstone estimate only through
    // per-op deltas, so the count drifts across rotations (the old
    // table's garbage vanished with it, foreign deletes raced the
    // walk). One chunked pass over the state words resyncs it.
    // Concurrent deletes may still slip a delta in while we scan —
    // the estimate only feeds the tombstoneHeavy heuristic, and the
    // next rotation resyncs again.
    constexpr std::size_t kStride = 512; // slots per transaction
    std::int64_t total = 0;
    for (std::size_t s0 = 0; s0 < live.slots; s0 += kStride) {
        const std::size_t s1 = std::min(live.slots, s0 + kStride);
        std::int64_t count = 0;
        poly_.run(token, [&](polytm::Tx &tx) {
            count = 0; // retried attempts restart
            for (std::size_t slot = s0; slot < s1; ++slot)
                count += tx.readWord(&live.records[slot].state) ==
                         kTombstone;
        });
        total += count;
    }
    live.tombstones.store(total, std::memory_order_relaxed);
}

void
Shard::sweepChunk(polytm::ThreadToken &token)
{
    TableEpoch *ep = epochMirror_.load(std::memory_order_acquire);
    ShardTable &live = *ep->live;
    const std::size_t chunk = options_.sweepChunkSlots;
    const std::size_t begin =
        live.sweepCursor.fetch_add(chunk, std::memory_order_relaxed) %
        live.slots;

    std::vector<std::uint64_t> reclaim;
    std::size_t expired_count = 0;
    poly_.run(token, [&](polytm::Tx &tx) {
        reclaim.clear();
        expired_count = 0; // retried attempts restart
        TableEpoch *cur = epochTx(tx);
        if (cur->live != &live)
            return; // table rotated under the clock hand
        const std::size_t steps = std::min(chunk, live.slots);
        for (std::size_t step = 0; step < steps; ++step) {
            // Only value slots can expire. Slots under an intent
            // belong to an in-flight commit; leave them to their owner.
            SlotRecord &rec = live.records[(begin + step) & live.mask];
            const std::uint64_t state = tx.readWord(&rec.state);
            if (!stateIsValue(state) || tx.readWord(&rec.intent) != 0)
                continue;
            const std::uint64_t deadline = tx.readWord(&rec.expiry);
            if (deadline != 0 && deadline <= nowNanos()) {
                if (state == kFullRef)
                    reclaim.push_back(tx.readWord(&rec.value));
                tx.writeWord(&rec.state, kTombstone);
                ++expired_count;
            }
        }
    });
    for (const std::uint64_t ref : reclaim)
        retireValue(token, ref);
    trace(obs::TraceKind::kSweepChunk, begin / chunk, expired_count);
    if (expired_count > 0) {
        live.tombstones.fetch_add(
            static_cast<std::int64_t>(expired_count),
            std::memory_order_relaxed);
    }
}

void
Shard::maintainTick(polytm::ThreadToken &token)
{
    TableEpoch *ep = epochMirror_.load(std::memory_order_acquire);
    if (ep->old) {
        migrateChunk(token);
        return;
    }
    ShardTable &live = *ep->live;
    const bool over_threshold =
        live.consumed.load(std::memory_order_relaxed) * 100 >=
        live.slots * options_.growLoadPercent;
    if (over_threshold &&
        (live.slots < maxSlots_ || tombstoneHeavy(live))) {
        std::lock_guard<std::mutex> lk(growMutex_);
        TableEpoch *cur = epochMirror_.load(std::memory_order_acquire);
        if (!cur->old && cur->live == &live) {
            // Delete churn consumes slots without holding data: a
            // tombstone-dominated table migrates into a SAME-size
            // table (shedding the garbage) instead of doubling.
            if (tombstoneHeavy(live))
                compactLocked(token);
            else
                growLocked(token, live.slots);
        }
        return;
    }
    const std::uint64_t ticks = writerOf(token).ticks++;
    if (ttlSeen_.load(std::memory_order_relaxed) && (ticks & 63) == 0)
        sweepChunk(token);
    // Recycle retired blobs whose reader epochs have quiesced. The
    // sweep pays one epoch RMW plus a claimed-slot scan, so it runs
    // on a sparse tick unless limbo is piling up.
    const std::size_t limbo = arena_.limboCount();
    if (limbo > 512 || (limbo > 0 && (ticks & 15) == 0))
        arena_.reclaim(readerEpochs_);
}

std::size_t
Shard::sizeQuiesced() const
{
    const std::uint64_t now = nowNanos();
    TableEpoch *ep = epochMirror_.load(std::memory_order_acquire);
    const auto count = [&](const ShardTable *table) {
        std::size_t n = 0;
        if (!table)
            return n;
        for (const SlotRecord &rec : table->records) {
            if (stateIsValue(rec.state) &&
                (rec.expiry == 0 || rec.expiry > now))
                ++n;
        }
        return n;
    };
    return count(ep->live) + count(ep->old);
}

std::size_t
Shard::findSlotQuiesced(std::uint64_t key) const
{
    // Test hook: raw probe over the quiesced live table (no TM, no
    // concurrency). Mirrors probe()'s termination rules.
    TableEpoch *ep = epochMirror_.load(std::memory_order_acquire);
    const ShardTable &table = *ep->live;
    std::size_t slot = homeSlot(table, key);
    for (std::size_t step = 0; step < table.slots; ++step) {
        const SlotRecord &rec = table.records[slot];
        if (rec.state == kEmpty)
            return table.slots;
        if (rec.state != kTombstone && rec.key == key)
            return slot;
        slot = (slot + 1) & table.mask;
    }
    return table.slots;
}

Shard::CkptStep
Shard::checkpointChunk(polytm::ThreadToken &token,
                       CheckpointCursor *cursor,
                       std::vector<CheckpointEntry> *out,
                       unsigned chunk_slots)
{
    CkptStep step = CkptStep::kMore;
    const std::size_t out_mark = out->size();
    poly_.run(token, [&](polytm::Tx &tx) {
        // A TM retry re-runs this body: drop the half-captured chunk.
        out->resize(out_mark);
        step = CkptStep::kMore;
        TableEpoch *ep = epochTx(tx);
        // The walk is only sound on a migration-free epoch: a
        // migration relocates keys across regions the cursor already
        // passed, silently dropping them from the image. The caller
        // drains the migration and restarts.
        if (ep->old != nullptr) {
            cursor->epoch = nullptr;
            step = CkptStep::kRestart;
            return;
        }
        if (cursor->epoch == nullptr) {
            cursor->epoch = ep;
            cursor->slot = 0;
        } else if (cursor->epoch != ep) {
            // Grow/compact published a new table mid-walk; entries
            // captured so far may miss relocated keys.
            cursor->epoch = nullptr;
            step = CkptStep::kRestart;
            return;
        }
        ShardTable &table = *ep->live;
        // One section for the chunk: every blob copy below joins it.
        EpochPin pin(readerEpochs_, *token.epochSlot);
        const ReadView view{ReadView::Mode::kSettle, 0};
        const std::size_t end =
            std::min(table.slots, cursor->slot + chunk_slots);
        for (std::size_t slot = cursor->slot; slot < end; ++slot) {
            const std::uint64_t state =
                tx.readWord(&table.records[slot].state);
            if (state != kFull && state != kFullRef &&
                state != kPendingInsert)
                continue;
            LiveValue live;
            if (!resolveSlotLiveTx(tx, table, slot, &live, view))
                continue; // logically absent (expired / aborted)
            CheckpointEntry entry;
            entry.key = tx.readWord(&table.records[slot].key);
            entry.expiry = live.expiry;
            if (live.state == kFull) {
                entry.value = live.value;
            } else {
                entry.isBytes = true;
                if (!bytesValueTx(tx, table, slot, live, &entry.bytes,
                                  view))
                    continue;
            }
            out->push_back(std::move(entry));
        }
        cursor->slot = end;
        if (cursor->slot >= table.slots)
            step = CkptStep::kDone;
    });
    return step;
}

} // namespace proteus::kvstore
