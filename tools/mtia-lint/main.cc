/**
 * mtia-lint: compiled cross-TU static analyzer for the simulator's
 * determinism and layering invariants.
 *
 * Token-level determinism and hygiene rules (no string/comment false
 * positives), plus:
 *   - a cross-TU include-graph pass enforcing the declared layer DAG
 *     (tools/mtia-lint/layers.def) and rejecting include cycles;
 *   - unordered-iteration, pointer-key-ordered and parallel-capture,
 *     determinism rules that need real tokens;
 *   - bare-allow, the suppression-hygiene rule: every
 *     `// sim-lint: allow(<rule>)` must carry a justification.
 *
 * Usage:
 *   mtia-lint [--root DIR] [--layers FILE] [--json FILE]
 *             [--graph-src DIR] [--no-graph] [--treat-as-src]
 *             [--dump-module-graph] [PATH ...]
 *
 * With no PATH arguments, lints src/, bench/, tools/, perfbench/ and
 * examples/ under --root and runs the include-graph pass over src/.
 * Exits 1 on any violation, 2 on usage or I/O errors (including a
 * PATH or --graph-src that does not exist).
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "include_graph.h"
#include "lexer.h"
#include "rules.h"

namespace fs = std::filesystem;
using mtia_lint::Finding;

namespace {

struct Options
{
    std::string root;
    std::string layers;     // defaults to root/tools/mtia-lint/layers.def
    std::string json;       // write a machine-readable report here
    std::string graph_src;  // override tree for the include-graph pass
    bool no_graph = false;
    bool treat_as_src = false;
    bool dump_module_graph = false;
    std::vector<std::string> paths;
};

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".hpp" || ext == ".cc" ||
           ext == ".cpp" || ext == ".cxx";
}

void
collect(const fs::path &p, std::vector<fs::path> &out)
{
    std::error_code ec;
    if (fs::is_regular_file(p, ec)) {
        if (isSourceFile(p))
            out.push_back(p);
        return;
    }
    std::vector<fs::path> found;
    for (fs::recursive_directory_iterator it(p, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file() && isSourceFile(it->path()))
            found.push_back(it->path());
    }
    std::sort(found.begin(), found.end());
    out.insert(out.end(), found.begin(), found.end());
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
writeJsonReport(const std::string &path, const std::string &root,
                int files_linted, const std::vector<Finding> &findings,
                const mtia_lint::IncludeGraph *graph)
{
    std::ofstream out(path);
    out << "{\n  \"schema\": \"mtia-lint-report-v1\",\n"
        << "  \"root\": \"" << jsonEscape(root) << "\",\n"
        << "  \"files_linted\": " << files_linted << ",\n"
        << "  \"violations\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        out << (i ? ",\n    " : "\n    ") << "{\"file\": \""
            << jsonEscape(f.file) << "\", \"line\": " << f.line
            << ", \"rule\": \"" << jsonEscape(f.rule)
            << "\", \"detail\": \"" << jsonEscape(f.detail) << "\"}";
    }
    out << (findings.empty() ? "]" : "\n  ]");
    if (graph) {
        out << ",\n  \"include_graph\": {\"files\": "
            << graph->file_count << ", \"edges\": " << graph->edge_count
            << ", \"module_edges\": [";
        const auto edges = mtia_lint::moduleEdges(*graph);
        for (std::size_t i = 0; i < edges.size(); ++i)
            out << (i ? ", " : "") << "\"" << jsonEscape(edges[i])
                << "\"";
        out << "]}";
    }
    out << "\n}\n";
}

int
fail(const std::string &msg)
{
    std::cerr << "mtia-lint: " << msg << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--root") {
            const char *v = next();
            if (!v)
                return fail("--root needs a value");
            opt.root = v;
        } else if (a == "--layers") {
            const char *v = next();
            if (!v)
                return fail("--layers needs a value");
            opt.layers = v;
        } else if (a == "--json") {
            const char *v = next();
            if (!v)
                return fail("--json needs a value");
            opt.json = v;
        } else if (a == "--graph-src") {
            const char *v = next();
            if (!v)
                return fail("--graph-src needs a value");
            opt.graph_src = v;
        } else if (a == "--no-graph") {
            opt.no_graph = true;
        } else if (a == "--treat-as-src") {
            opt.treat_as_src = true;
        } else if (a == "--dump-module-graph") {
            opt.dump_module_graph = true;
        } else if (a == "--help" || a == "-h") {
            std::cout
                << "usage: mtia-lint [--root DIR] [--layers FILE] "
                   "[--json FILE]\n                 [--graph-src DIR] "
                   "[--no-graph] [--treat-as-src]\n                 "
                   "[--dump-module-graph] [PATH ...]\n";
            return 0;
        } else if (!a.empty() && a[0] == '-') {
            return fail("unknown option " + a);
        } else {
            opt.paths.push_back(a);
        }
    }

    const fs::path root =
        fs::absolute(opt.root.empty() ? "." : opt.root)
            .lexically_normal();
    if (!fs::exists(root))
        return fail("root " + root.string() + " does not exist");
    for (const std::string &p : opt.paths)
        if (!fs::exists(p))
            return fail("path " + p + " does not exist");
    if (!opt.graph_src.empty() && !fs::exists(opt.graph_src))
        return fail("--graph-src " + opt.graph_src + " does not exist");
    if (opt.layers.empty())
        opt.layers = (root / "tools/mtia-lint/layers.def").string();

    // ------------------------------------------------------ targets
    const bool default_targets = opt.paths.empty();
    std::vector<fs::path> files;
    if (default_targets) {
        for (const char *d :
             {"src", "bench", "tools", "perfbench", "examples"})
            if (fs::exists(root / d))
                collect(root / d, files);
    } else {
        for (const std::string &p : opt.paths)
            collect(fs::absolute(p).lexically_normal(), files);
    }

    // -------------------------------------------------- rule engine
    std::vector<Finding> findings;
    int files_linted = 0;
    for (const fs::path &f : files) {
        std::ifstream in(f, std::ios::binary);
        if (!in) {
            findings.push_back(
                {f.string(), 0, "io-error", "cannot read file"});
            continue;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        ++files_linted;

        std::string rel = f.lexically_relative(root).generic_string();
        if (rel.empty() || rel.compare(0, 2, "..") == 0)
            rel = f.generic_string();

        const mtia_lint::LexedFile lf = mtia_lint::lex(buf.str());
        auto file_findings = mtia_lint::runRules(
            lf, rel, mtia_lint::fileContext(rel, opt.treat_as_src));
        findings.insert(findings.end(), file_findings.begin(),
                        file_findings.end());
    }

    // ------------------------------------------- include-graph pass
    const bool want_graph =
        !opt.no_graph && (default_targets || !opt.graph_src.empty() ||
                          opt.dump_module_graph);
    mtia_lint::IncludeGraph graph;
    bool have_graph = false;
    if (want_graph) {
        const fs::path src_root = opt.graph_src.empty()
                                      ? root / "src"
                                      : fs::absolute(opt.graph_src);
        if (fs::exists(src_root)) {
            graph = mtia_lint::buildIncludeGraph(src_root.string());
            have_graph = true;
            const std::string prefix =
                opt.graph_src.empty()
                    ? "src/"
                    : src_root.lexically_relative(root)
                              .generic_string() +
                          "/";
            const mtia_lint::LayerTable layers =
                mtia_lint::loadLayerTable(opt.layers);
            if (!layers.error.empty())
                return fail(layers.error);
            auto graph_findings =
                mtia_lint::checkLayers(graph, layers, prefix);
            findings.insert(findings.end(), graph_findings.begin(),
                            graph_findings.end());
        }
    }

    if (opt.dump_module_graph && have_graph) {
        for (const std::string &e : mtia_lint::moduleEdges(graph))
            std::cout << e << "\n";
        return 0;
    }

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });

    for (const Finding &f : findings)
        std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.detail << "\n";

    if (!opt.json.empty())
        writeJsonReport(opt.json, root.string(), files_linted, findings,
                        have_graph ? &graph : nullptr);

    if (!findings.empty()) {
        std::cout << "\n" << findings.size() << " violation(s) in "
                  << files_linted << " file(s)\n";
        return 1;
    }
    std::cout << "ok: " << files_linted << " file(s) clean";
    if (have_graph)
        std::cout << "; include graph: " << graph.file_count
                  << " files, " << graph.edge_count
                  << " edges, layer DAG holds";
    std::cout << "\n";
    return 0;
}
