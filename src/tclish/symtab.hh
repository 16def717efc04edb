/**
 * @file
 * Tcl-style symbol table: string names to string values.
 *
 * Every tclish variable reference goes through one of these tables at
 * runtime — there is no compile step to resolve names to slots, which
 * is exactly why §3.3 measures 206-514 native instructions per
 * variable access for Tcl, *varying with the number of entries*: the
 * bucket count here is fixed, so chains (and the charged lookup work)
 * grow with the table.
 */

#ifndef INTERP_TCLISH_SYMTAB_HH
#define INTERP_TCLISH_SYMTAB_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace interp::tclish {

/** Chained hash table with a fixed bucket count (Tcl 7.x flavor). */
class SymTab
{
  public:
    SymTab();

    /** Tcl's classic string hash. */
    static uint32_t hashName(const std::string &name);

    /**
     * Find or create the slot for @p name.
     * @param chain_steps out: nodes visited.
     */
    std::string &lookup(const std::string &name, int &chain_steps);

    /** Find without creating; null if absent. */
    std::string *find(const std::string &name, int &chain_steps);

    /** Remove an entry; true if it existed. */
    bool erase(const std::string &name);

    /** All names, unordered. */
    std::vector<std::string> names() const;

    size_t size() const { return count; }

    /** Host address of the last-touched bucket (d-cache realism). */
    const void *lastBucketAddr = nullptr;
    /**
     * Characters of the key the last lookup() or find() resolved to:
     * the entry's own copy of the name, a heap object; null after a
     * miss. Lookup charges read the name here, never at the caller's
     * string, which may live in a stack frame.
     */
    const char *lastKeyAddr = nullptr;

  private:
    struct Node
    {
        std::string name;
        std::string value;
        std::unique_ptr<Node> next;
    };

    static constexpr size_t kBuckets = 32;

    std::vector<std::unique_ptr<Node>> buckets;
    size_t count = 0;
};

} // namespace interp::tclish

#endif // INTERP_TCLISH_SYMTAB_HH
