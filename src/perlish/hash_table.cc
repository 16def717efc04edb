#include "perlish/hash_table.hh"

#include "support/logging.hh"

namespace interp::perlish {

HashTable::HashTable() : buckets(8) {}

uint32_t
HashTable::hashKey(const std::string &key)
{
    uint32_t hash = 0;
    for (char c : key)
        hash = hash * 33 + (uint8_t)c;
    return hash;
}

Scalar &
HashTable::lookup(const std::string &key, int &chain_steps)
{
    chain_steps = 0;
    uint32_t index = hashKey(key) & (uint32_t)(buckets.size() - 1);
    lastBucketAddr = &buckets[index];
    for (Node *node = buckets[index].get(); node; node = node->next.get()) {
        ++chain_steps;
        if (node->key == key) {
            lastKeyAddr = node->key.data();
            return node->value;
        }
    }
    // Insert at bucket head.
    auto node = std::make_unique<Node>();
    node->key = key;
    node->next = std::move(buckets[index]);
    buckets[index] = std::move(node);
    ++count;
    if (count > buckets.size() * 3) {
        grow();
        // grow() reallocated the bucket array and rehashed every node:
        // the address cached above dangles. Recompute it against the
        // live array before handing back the relocated slot, so the
        // d-cache charge in the interpreter sees a live bucket head.
        index = hashKey(key) & (uint32_t)(buckets.size() - 1);
        lastBucketAddr = &buckets[index];
        for (Node *n = buckets[index].get(); n; n = n->next.get())
            if (n->key == key) {
                lastKeyAddr = n->key.data();
                return n->value;
            }
        panic("hash_table: key relocated out of existence during grow");
    }
    lastKeyAddr = buckets[index]->key.data();
    return buckets[index]->value;
}

Scalar *
HashTable::find(const std::string &key, int &chain_steps)
{
    chain_steps = 0;
    uint32_t index = hashKey(key) & (uint32_t)(buckets.size() - 1);
    lastBucketAddr = &buckets[index];
    for (Node *node = buckets[index].get(); node; node = node->next.get()) {
        ++chain_steps;
        if (node->key == key) {
            lastKeyAddr = node->key.data();
            return &node->value;
        }
    }
    lastKeyAddr = nullptr;
    return nullptr;
}

bool
HashTable::erase(const std::string &key)
{
    uint32_t index = hashKey(key) & (uint32_t)(buckets.size() - 1);
    std::unique_ptr<Node> *link = &buckets[index];
    while (*link) {
        if ((*link)->key == key) {
            *link = std::move((*link)->next);
            --count;
            ++gen; // cached entries for this key are now stale
            return true;
        }
        link = &(*link)->next;
    }
    return false;
}

std::vector<std::string>
HashTable::keys() const
{
    std::vector<std::string> out;
    out.reserve(count);
    for (const auto &head : buckets)
        for (Node *node = head.get(); node; node = node->next.get())
            out.push_back(node->key);
    return out;
}

void
HashTable::grow()
{
    ++gen; // every node relocates; cached positions are stale
    std::vector<std::unique_ptr<Node>> old = std::move(buckets);
    buckets.clear();
    buckets.resize(old.size() * 2);
    for (auto &head : old) {
        while (head) {
            std::unique_ptr<Node> node = std::move(head);
            head = std::move(node->next);
            uint32_t index =
                hashKey(node->key) & (uint32_t)(buckets.size() - 1);
            node->next = std::move(buckets[index]);
            buckets[index] = std::move(node);
        }
    }
}

} // namespace interp::perlish
