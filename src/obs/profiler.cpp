#include "obs/profiler.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>

namespace codecrunch::obs {

namespace {

using Clock = std::chrono::steady_clock;

/** One phase in one thread's tree. */
struct Node {
    const char* name = "";
    Node* parent = nullptr;
    std::uint64_t calls = 0;
    double seconds = 0.0;
    std::vector<std::unique_ptr<Node>> children;

    Node*
    child(const char* childName)
    {
        for (const auto& c : children) {
            // Pointer compare first: the same literal from the same
            // call site is the overwhelmingly common case.
            if (c->name == childName ||
                std::strcmp(c->name, childName) == 0)
                return c.get();
        }
        auto node = std::make_unique<Node>();
        node->name = childName;
        node->parent = this;
        children.push_back(std::move(node));
        return children.back().get();
    }
};

struct Tree {
    Node root;
    Node* current = &root;
};

/** Global view of every thread's tree, live and retired. */
struct Trees {
    std::mutex mutex;
    std::vector<Tree*> live;
    Node retired; // merged trees of exited threads
};

Trees&
trees()
{
    static Trees* instance = new Trees(); // leak: outlive TLS dtors
    return *instance;
}

void
mergeInto(Node& into, const Node& from)
{
    into.calls += from.calls;
    into.seconds += from.seconds;
    for (const auto& child : from.children) {
        Node* target = into.child(child->name);
        mergeInto(*target, *child);
    }
}

/** Registers on first use, retires (merges + deregisters) at exit. */
struct TreeHolder {
    std::unique_ptr<Tree> tree = std::make_unique<Tree>();

    TreeHolder()
    {
        Trees& global = trees();
        std::lock_guard<std::mutex> lock(global.mutex);
        global.live.push_back(tree.get());
    }

    ~TreeHolder()
    {
        Trees& global = trees();
        std::lock_guard<std::mutex> lock(global.mutex);
        mergeInto(global.retired, tree->root);
        global.live.erase(std::find(global.live.begin(),
                                    global.live.end(), tree.get()));
    }
};

Tree&
localTree()
{
    thread_local TreeHolder holder;
    return *holder.tree;
}

void
buildReport(Profiler::PhaseReport& out, const Node& node)
{
    out.name = node.name;
    out.calls = node.calls;
    out.seconds = node.seconds;
    out.children.reserve(node.children.size());
    for (const auto& child : node.children) {
        out.children.emplace_back();
        buildReport(out.children.back(), *child);
    }
    std::sort(out.children.begin(), out.children.end(),
              [](const Profiler::PhaseReport& a,
                 const Profiler::PhaseReport& b) {
                  return a.name < b.name;
              });
}

std::uint64_t
totalCalls(const Profiler::PhaseReport& report)
{
    std::uint64_t calls = report.calls;
    for (const auto& child : report.children)
        calls += totalCalls(child);
    return calls;
}

void
printPhase(std::FILE* out, const Profiler::PhaseReport& phase,
           int depth)
{
    double childSeconds = 0.0;
    for (const auto& child : phase.children)
        childSeconds += child.seconds;
    const double self = phase.seconds - childSeconds;
    std::fprintf(out, "%*s%-*s %12llu %11.3f %11.3f\n", 2 * depth, "",
                 40 - 2 * depth, phase.name.c_str(),
                 static_cast<unsigned long long>(phase.calls),
                 phase.seconds, self > 0.0 ? self : 0.0);
    for (const auto& child : phase.children)
        printPhase(out, child, depth + 1);
}

} // namespace

Profiler&
Profiler::global()
{
    static Profiler profiler;
    return profiler;
}

Profiler::Scope::Scope(const char* name)
{
    if (!Profiler::global().enabled())
        return;
    Tree& tree = localTree();
    Node* node = tree.current->child(name);
    tree.current = node;
    node_ = node;
    start_ = Clock::now();
}

Profiler::Scope::~Scope()
{
    if (!node_)
        return;
    Node* node = static_cast<Node*>(node_);
    node->seconds +=
        std::chrono::duration<double>(Clock::now() - start_).count();
    ++node->calls;
    localTree().current = node->parent;
}

Profiler::PhaseReport
Profiler::report() const
{
    Trees& global = trees();
    std::lock_guard<std::mutex> lock(global.mutex);
    Node merged;
    mergeInto(merged, global.retired);
    for (const Tree* tree : global.live)
        mergeInto(merged, tree->root);
    PhaseReport out;
    buildReport(out, merged);
    return out;
}

double
Profiler::calibratePerScopeSeconds() const
{
    if (!enabled())
        return 0.0;
    constexpr int kIterations = 1 << 15;
    const auto start = Clock::now();
    for (int i = 0; i < kIterations; ++i) {
        Scope scope("profiler.calibration");
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    return elapsed / kIterations;
}

void
Profiler::printTable(std::FILE* out) const
{
    // Report before calibrating so the calibration batch's own scopes
    // don't inflate the table they are meant to explain.
    const PhaseReport merged = report();
    const double perScope = calibratePerScopeSeconds();
    std::fprintf(out,
                 "--- phase profile (wall-clock) "
                 "---------------------------------\n");
    std::fprintf(out, "%-40s %12s %11s %11s\n", "phase", "calls",
                 "total s", "self s");
    for (const auto& phase : merged.children)
        printPhase(out, phase, 0);
    const std::uint64_t scopes = totalCalls(merged);
    std::fprintf(out,
                 "profiler self-overhead: ~%.4f s across %llu scopes "
                 "(%.0f ns/scope, measured)\n",
                 perScope * static_cast<double>(scopes),
                 static_cast<unsigned long long>(scopes),
                 perScope * 1e9);
}

void
Profiler::reset()
{
    Trees& global = trees();
    std::lock_guard<std::mutex> lock(global.mutex);
    global.retired = Node();
    for (Tree* tree : global.live) {
        // Live trees may belong to threads that are still running;
        // resetting their structure would race with a re-entering
        // scope, so only a quiescent caller may reset (same contract
        // as report()).
        tree->root.children.clear();
        tree->root.calls = 0;
        tree->root.seconds = 0.0;
        tree->current = &tree->root;
    }
}

} // namespace codecrunch::obs
