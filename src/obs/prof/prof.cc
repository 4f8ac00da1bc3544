#include "obs/prof/prof.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/logging.h"

namespace raizn {
namespace prof {

bool g_enabled = false;
uint64_t g_virtual_now = 0;
uint64_t g_events_dispatched = 0;
uint64_t g_alloc_count = 0;
uint64_t g_alloc_bytes = 0;
uint64_t g_copy_count = 0;
uint64_t g_copy_bytes = 0;

namespace {

/**
 * Call-tree node. Children of the same parent form a singly linked
 * list scanned linearly on entry — fan-out per parent is small (a few
 * distinct child sites), and first-encounter order makes the tree, and
 * therefore every export, deterministic for a deterministic run.
 */
struct Node {
    Site *site;
    uint32_t parent;       ///< node index; 0 is the synthetic root
    uint32_t first_child = 0;
    uint32_t next_sibling = 0;
    uint64_t hits = 0;
    uint64_t host_total_ns = 0;
    uint64_t host_self_ns = 0;
    uint64_t virt_total_ns = 0;
    uint64_t virt_self_ns = 0;
};

/// Live-scope shadow stack: child time accumulates here so self time
/// can be derived without walking the tree on exit.
struct Frame {
    uint32_t node;
    uint64_t t0_host;
    uint64_t t0_virt;
    uint64_t child_host = 0;
    uint64_t child_virt = 0;
};

struct State {
    /// Registry: content-keyed; values own the sites (stable address).
    std::unordered_map<std::string, std::unique_ptr<Site>> sites;
    /// Event-tag cache: literal-pointer keyed, "sim.cb.<tag>" sites.
    std::unordered_map<const void *, Site *> tag_sites;
    std::vector<Node> nodes;
    std::vector<Frame> stack;
    uint64_t window_start_host = 0;
    uint64_t window_wall_ns = 0;
    WindowCounters window_base;
    bool window_open = false;
};

State &
state()
{
    static State s;
    if (s.nodes.empty()) {
        // Room for a typical run's call tree and nesting depth, so the
        // first scopes of a window do not grow either vector inside it
        // (a cold allocation costs ~100 us under ASan); clears keep it.
        s.nodes.reserve(256);
        s.stack.reserve(32);
        s.nodes.push_back(Node{nullptr, 0}); // synthetic root, index 0
    }
    return s;
}

WindowCounters
raw_counters()
{
    WindowCounters c;
    c.events_dispatched = g_events_dispatched;
    c.alloc_count = g_alloc_count;
    c.alloc_bytes = g_alloc_bytes;
    c.copy_count = g_copy_count;
    c.copy_bytes = g_copy_bytes;
    return c;
}

void
clear_aggregates(State &s)
{
    s.nodes.clear();
    s.nodes.push_back(Node{nullptr, 0});
    s.stack.clear();
    for (auto &kv : s.sites) {
        Site &site = *kv.second;
        site.hits = 0;
        site.host_total_ns = 0;
        site.host_self_ns = 0;
        site.virt_total_ns = 0;
        site.virt_self_ns = 0;
        site.queue_wait_ns = 0;
    }
}

/// Escapes a scope name for JSON (names are plain identifiers today,
/// but event tags are caller-supplied).
std::string
json_escape(const std::string &in)
{
    std::string out;
    out.reserve(in.size());
    for (char c : in) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

void
fold_walk(const State &s, uint32_t node, std::string prefix,
          std::vector<std::string> *lines)
{
    const Node &n = s.nodes[node];
    std::string path = prefix.empty()
        ? n.site->name
        : prefix + ";" + n.site->name;
    if (n.host_self_ns > 0 || n.first_child == 0) {
        lines->push_back(
            strprintf("%s %llu", path.c_str(),
                      static_cast<unsigned long long>(n.host_self_ns)));
    }
    for (uint32_t c = n.first_child; c != 0; c = s.nodes[c].next_sibling)
        fold_walk(s, c, path, lines);
}

std::vector<const Site *>
sites_by_self()
{
    State &s = state();
    std::vector<const Site *> v;
    v.reserve(s.sites.size());
    for (const auto &kv : s.sites)
        if (kv.second->hits > 0 || kv.second->queue_wait_ns > 0)
            v.push_back(kv.second.get());
    std::sort(v.begin(), v.end(), [](const Site *a, const Site *b) {
        if (a->host_self_ns != b->host_self_ns)
            return a->host_self_ns > b->host_self_ns;
        return a->name < b->name;
    });
    return v;
}

} // namespace

uint64_t
host_now_ns()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

Site *
intern_site(const char *name)
{
    State &s = state();
    auto it = s.sites.find(name);
    if (it != s.sites.end())
        return it->second.get();
    auto site = std::make_unique<Site>();
    site->name = name;
    Site *p = site.get();
    s.sites.emplace(site->name, std::move(site));
    return p;
}

Site *
event_site(const char *tag)
{
    State &s = state();
    const void *key = tag != nullptr ? static_cast<const void *>(tag)
                                     : static_cast<const void *>(&s);
    auto it = s.tag_sites.find(key);
    if (it != s.tag_sites.end())
        return it->second;
    std::string name =
        std::string("sim.cb.") + (tag != nullptr ? tag : "untagged");
    Site *site = intern_site(name.c_str());
    s.tag_sites.emplace(key, site);
    return site;
}

void
enable()
{
    State &s = state();
    assert(s.stack.empty() && "enable() with profiler scopes live");
    clear_aggregates(s);
    s.window_base = raw_counters();
    s.window_start_host = host_now_ns();
    s.window_wall_ns = 0;
    s.window_open = true;
    g_enabled = true;
}

void
disable()
{
    State &s = state();
    if (s.window_open) {
        s.window_wall_ns = host_now_ns() - s.window_start_host;
        s.window_open = false;
    }
    g_enabled = false;
}

void
reset()
{
    State &s = state();
    g_enabled = false;
    clear_aggregates(s);
    s.window_open = false;
    s.window_wall_ns = 0;
    s.window_start_host = 0;
    s.window_base = WindowCounters{};
}

uint64_t
wall_ns()
{
    const State &s = state();
    if (s.window_open)
        return host_now_ns() - s.window_start_host;
    return s.window_wall_ns;
}

double
coverage()
{
    const State &s = state();
    uint64_t wall = wall_ns();
    if (wall == 0)
        return 0.0;
    uint64_t covered = 0;
    const Node &root = s.nodes[0];
    for (uint32_t c = root.first_child; c != 0;
         c = s.nodes[c].next_sibling)
        covered += s.nodes[c].host_total_ns;
    return static_cast<double>(covered) / static_cast<double>(wall);
}

WindowCounters
window_counters()
{
    const State &s = state();
    WindowCounters now = raw_counters();
    WindowCounters d;
    d.events_dispatched =
        now.events_dispatched - s.window_base.events_dispatched;
    d.alloc_count = now.alloc_count - s.window_base.alloc_count;
    d.alloc_bytes = now.alloc_bytes - s.window_base.alloc_bytes;
    d.copy_count = now.copy_count - s.window_base.copy_count;
    d.copy_bytes = now.copy_bytes - s.window_base.copy_bytes;
    return d;
}

double
events_per_sec()
{
    uint64_t wall = wall_ns();
    if (wall == 0)
        return 0.0;
    return static_cast<double>(window_counters().events_dispatched) /
        (static_cast<double>(wall) * 1e-9);
}

void
Scope::enter(Site *site)
{
    State &s = state();
    uint32_t parent =
        s.stack.empty() ? 0u : s.stack.back().node;
    // Find or create the (parent, site) child node.
    uint32_t node = 0;
    uint32_t prev = 0;
    for (uint32_t c = s.nodes[parent].first_child; c != 0;
         c = s.nodes[c].next_sibling) {
        if (s.nodes[c].site == site) {
            node = c;
            break;
        }
        prev = c;
    }
    if (node == 0) {
        node = static_cast<uint32_t>(s.nodes.size());
        s.nodes.push_back(Node{site, parent});
        if (prev != 0)
            s.nodes[prev].next_sibling = node;
        else
            s.nodes[parent].first_child = node;
    }
    Frame f;
    f.node = node;
    f.t0_host = host_now_ns();
    f.t0_virt = g_virtual_now;
    s.stack.push_back(f);
    active_ = true;
}

void
Scope::leave()
{
    State &s = state();
    assert(!s.stack.empty());
    Frame f = s.stack.back();
    s.stack.pop_back();
    uint64_t host = host_now_ns() - f.t0_host;
    uint64_t virt = g_virtual_now - f.t0_virt;
    uint64_t host_self = host > f.child_host ? host - f.child_host : 0;
    uint64_t virt_self = virt > f.child_virt ? virt - f.child_virt : 0;

    Node &n = s.nodes[f.node];
    n.hits++;
    n.host_total_ns += host;
    n.host_self_ns += host_self;
    n.virt_total_ns += virt;
    n.virt_self_ns += virt_self;

    Site &site = *n.site;
    site.hits++;
    site.host_total_ns += host;
    site.host_self_ns += host_self;
    site.virt_total_ns += virt;
    site.virt_self_ns += virt_self;

    if (!s.stack.empty()) {
        s.stack.back().child_host += host;
        s.stack.back().child_virt += virt;
    }
}

std::string
folded()
{
    const State &s = state();
    std::vector<std::string> lines;
    const Node &root = s.nodes[0];
    for (uint32_t c = root.first_child; c != 0;
         c = s.nodes[c].next_sibling)
        fold_walk(s, c, "", &lines);
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string &l : lines) {
        out += l;
        out += '\n';
    }
    return out;
}

std::string
summary_json()
{
    WindowCounters c = window_counters();
    std::string out = "{\n";
    out += strprintf("  \"wall_ns\": %llu,\n",
                     static_cast<unsigned long long>(wall_ns()));
    out += strprintf("  \"coverage\": %.4f,\n", coverage());
    out += strprintf("  \"events_per_sec\": %.1f,\n", events_per_sec());
    out += "  \"counters\": {\n";
    out += strprintf("    \"events_dispatched\": %llu,\n",
                     static_cast<unsigned long long>(c.events_dispatched));
    out += strprintf("    \"alloc_count\": %llu,\n",
                     static_cast<unsigned long long>(c.alloc_count));
    out += strprintf("    \"alloc_bytes\": %llu,\n",
                     static_cast<unsigned long long>(c.alloc_bytes));
    out += strprintf("    \"copy_count\": %llu,\n",
                     static_cast<unsigned long long>(c.copy_count));
    out += strprintf("    \"copy_bytes\": %llu\n",
                     static_cast<unsigned long long>(c.copy_bytes));
    out += "  },\n  \"scopes\": [\n";
    std::vector<const Site *> v = sites_by_self();
    for (size_t i = 0; i < v.size(); ++i) {
        const Site *p = v[i];
        out += strprintf(
            "    {\"name\": \"%s\", \"hits\": %llu, "
            "\"host_total_ns\": %llu, \"host_self_ns\": %llu, "
            "\"virt_total_ns\": %llu, \"virt_self_ns\": %llu, "
            "\"queue_wait_ns\": %llu}%s\n",
            json_escape(p->name).c_str(),
            static_cast<unsigned long long>(p->hits),
            static_cast<unsigned long long>(p->host_total_ns),
            static_cast<unsigned long long>(p->host_self_ns),
            static_cast<unsigned long long>(p->virt_total_ns),
            static_cast<unsigned long long>(p->virt_self_ns),
            static_cast<unsigned long long>(p->queue_wait_ns),
            i + 1 < v.size() ? "," : "");
    }
    out += "  ]\n}\n";
    return out;
}

std::string
table(size_t top_n)
{
    std::vector<const Site *> v = sites_by_self();
    if (v.size() > top_n)
        v.resize(top_n);
    std::string out = strprintf(
        "%-32s %10s %12s %12s %12s\n", "scope", "hits", "self_ms",
        "total_ms", "qwait_ms");
    for (const Site *p : v) {
        out += strprintf(
            "%-32s %10llu %12.3f %12.3f %12.3f\n", p->name.c_str(),
            static_cast<unsigned long long>(p->hits),
            static_cast<double>(p->host_self_ns) * 1e-6,
            static_cast<double>(p->host_total_ns) * 1e-6,
            static_cast<double>(p->queue_wait_ns) * 1e-6);
    }
    return out;
}

Status
write_file(const std::string &path, const std::string &text)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return Status(StatusCode::kIoError, "cannot open " + path);
    size_t n = std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    if (n != text.size())
        return Status(StatusCode::kIoError, "short write to " + path);
    return Status::ok();
}

} // namespace prof
} // namespace raizn
