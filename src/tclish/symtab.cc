#include "tclish/symtab.hh"

namespace interp::tclish {

SymTab::SymTab() : buckets(kBuckets) {}

uint32_t
SymTab::hashName(const std::string &name)
{
    uint32_t hash = 0;
    for (char c : name)
        hash = hash * 9 + (uint8_t)c;
    return hash;
}

std::string &
SymTab::lookup(const std::string &name, int &chain_steps)
{
    chain_steps = 0;
    uint32_t index = hashName(name) % kBuckets;
    lastBucketAddr = &buckets[index];
    for (Node *node = buckets[index].get(); node;
         node = node->next.get()) {
        ++chain_steps;
        if (node->name == name) {
            lastKeyAddr = node->name.data();
            return node->value;
        }
    }
    auto node = std::make_unique<Node>();
    node->name = name;
    node->next = std::move(buckets[index]);
    buckets[index] = std::move(node);
    ++count;
    lastKeyAddr = buckets[index]->name.data();
    return buckets[index]->value;
}

std::string *
SymTab::find(const std::string &name, int &chain_steps)
{
    chain_steps = 0;
    uint32_t index = hashName(name) % kBuckets;
    lastBucketAddr = &buckets[index];
    for (Node *node = buckets[index].get(); node;
         node = node->next.get()) {
        ++chain_steps;
        if (node->name == name) {
            lastKeyAddr = node->name.data();
            return &node->value;
        }
    }
    lastKeyAddr = nullptr;
    return nullptr;
}

bool
SymTab::erase(const std::string &name)
{
    uint32_t index = hashName(name) % kBuckets;
    std::unique_ptr<Node> *link = &buckets[index];
    while (*link) {
        if ((*link)->name == name) {
            *link = std::move((*link)->next);
            --count;
            return true;
        }
        link = &(*link)->next;
    }
    return false;
}

std::vector<std::string>
SymTab::names() const
{
    std::vector<std::string> out;
    out.reserve(count);
    for (const auto &head : buckets)
        for (Node *node = head.get(); node; node = node->next.get())
            out.push_back(node->name);
    return out;
}

} // namespace interp::tclish
