// Extensibility demo (paper §6.2, §7): a predicate defined by a C++
// function used inside declarative rules, plus persistent relations
// through the EXODUS-substitute storage manager — data survives process
// restarts, and rules read it through the same get-next-tuple interface.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>

#include <coral/coral.h>

int main() {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "coral_cxx_extension_demo";
  fs::create_directories(dir);
  std::string prefix = (dir / "geo").string();

  coral::Coral c;

  // --- A predicate defined in C++: great-circle-ish distance ------------
  // haversine(Lat1, Lon1, Lat2, Lon2, Km): all inputs must be bound.
  auto st = c.RegisterPredicate(
      "haversine", 5,
      [](std::span<const coral::TermRef> args, coral::TermFactory* f,
         std::vector<const coral::Tuple*>* out) -> coral::Status {
        double v[4];
        for (int i = 0; i < 4; ++i) {
          coral::TermRef r = coral::Deref(args[i].term, args[i].env);
          if (r.term->kind() == coral::ArgKind::kDouble) {
            v[i] = coral::ArgCast<coral::DoubleArg>(r.term)->value();
          } else if (r.term->kind() == coral::ArgKind::kInt) {
            v[i] = static_cast<double>(
                coral::ArgCast<coral::IntArg>(r.term)->value());
          } else {
            return coral::Status::FailedPrecondition(
                "haversine needs bound numeric coordinates");
          }
        }
        auto rad = [](double d) { return d * M_PI / 180.0; };
        double dlat = rad(v[2] - v[0]), dlon = rad(v[3] - v[1]);
        double a = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   std::cos(rad(v[0])) * std::cos(rad(v[2])) *
                       std::sin(dlon / 2) * std::sin(dlon / 2);
        double km = 2 * 6371.0 * std::asin(std::sqrt(a));
        const coral::Arg* t[5] = {
            coral::Deref(args[0].term, args[0].env).term,
            coral::Deref(args[1].term, args[1].env).term,
            coral::Deref(args[2].term, args[2].env).term,
            coral::Deref(args[3].term, args[3].env).term,
            f->MakeDouble(std::round(km))};
        out->push_back(f->MakeTuple(t));
        return coral::Status::OK();
      });
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }

  // --- Persistent city coordinates --------------------------------------
  auto sm = coral::StorageManager::Open(prefix, c.factory());
  if (!sm.ok()) {
    std::cerr << sm.status().ToString() << "\n";
    return 1;
  }
  coral::PersistentRelation* city = (*sm)->FindRelation("city", 3);
  bool fresh = city == nullptr;
  if (fresh) {
    auto created = (*sm)->CreateRelation("city", 3);
    if (!created.ok()) return 1;
    city = *created;
    struct Row { const char* name; double lat, lon; };
    for (const Row& r : {Row{"madison", 43.07, -89.40},
                         Row{"chicago", 41.88, -87.63},
                         Row{"seattle", 47.61, -122.33},
                         Row{"boston", 42.36, -71.06}}) {
      const coral::Arg* args[] = {c.Atom(r.name), c.Double(r.lat),
                                  c.Double(r.lon)};
      city->Insert(c.factory()->MakeTuple(args));
    }
  }
  std::cout << (fresh ? "created" : "reopened") << " persistent relation "
            << "city/3 with " << city->size() << " rows\n";
  st = (*sm)->AttachTo(c.db());
  if (!st.ok()) return 1;

  // --- Declarative rules over both --------------------------------------
  st = c.Consult(R"(
    module geo.
    export distance(bbf), near_madison(ff).
    distance(A, B, Km) :- city(A, LatA, LonA), city(B, LatB, LonB),
                          haversine(LatA, LonA, LatB, LonB, Km).
    near_madison(B, Km) :- distance(madison, B, Km), Km < 1000.0,
                           B \= madison.
    end_module.
  )").status();
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }

  std::cout << "\ndistances from madison (C++ predicate inside rules):\n";
  std::cout << *c.Command("?- distance(madison, B, Km).");
  std::cout << "\ncities within 1000 km of madison:\n";
  std::cout << *c.Command("?- near_madison(B, Km).");

  st = (*sm)->Close();
  if (!st.ok()) return 1;
  std::cout << "\n(data persisted under " << prefix << ".db — run again "
            << "to see it reopened)\n";
  return 0;
}
