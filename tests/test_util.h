// Shared helpers for core/baseline tests: small hand-built lakes echoing
// the paper's Figure 1 running example.
#pragma once

#include <string>
#include <vector>

#include "core/query.h"
#include "io/binary_io.h"
#include "table/lake.h"
#include "table/table.h"

namespace d3l::testutil {

inline Table MakeTable(std::string name, std::vector<std::string> cols,
                       std::vector<std::vector<std::string>> rows) {
  return std::move(Table::FromRows(std::move(name), std::move(cols), std::move(rows)))
      .ValueOrDie();
}

/// The paper's Figure 1: sources S1 (GP practices), S2 (GP funding),
/// S3 (Local GPs) — plus unrelated filler tables.
inline Table FigureS1() {
  return MakeTable(
      "s1_gp_practices", {"Practice Name", "Address", "City", "Postcode", "Patients"},
      {{"Dr E Cullen", "51 Botanic Av", "Belfast", "BT7 1JL", "1202"},
       {"Blackfriars", "1a Chapel St", "Salford", "M3 6AF", "3572"},
       {"Radclife Care", "69 Church St", "Manchester", "M26 2SP", "2210"},
       {"Bolton Medical", "21 Rupert St", "Bolton", "BL3 6PY", "1870"},
       {"Oxford Road Practice", "5 Oxford Rd", "Manchester", "M13 9PL", "4100"},
       {"Mirabel Surgery", "9 Mirabel St", "Manchester", "M3 1NN", "950"}});
}

inline Table FigureS2() {
  return MakeTable("s2_gp_funding", {"Practice", "City", "Postcode", "Payment"},
                   {{"The London Clinic", "London", "W1G 6BW", "73648"},
                    {"Blackfriars", "Salford", "M3 6AF", "15530"},
                    {"Radclife Care", "Manchester", "M26 2SP", "18220"},
                    {"Bolton Medical", "Bolton", "BL3 6PY", "12790"},
                    {"Mirabel Surgery", "Manchester", "M3 1NN", "9060"}});
}

inline Table FigureS3() {
  return MakeTable("s3_local_gps", {"GP", "Location", "Opening hours"},
                   {{"Blackfriars", "Salford", "08:00-18:00"},
                    {"Radclife Care", "-", "07:00-20:00"},
                    {"Bolton Medical", "Bolton", "08:00-16:00"},
                    {"Oxford Road Practice", "Manchester", "09:00-17:00"}});
}

inline Table FigureTarget() {
  return MakeTable("target_gps", {"Practice", "Street", "City", "Postcode", "Hours"},
                   {{"Radclife Care", "69 Church St", "Manchester", "M26 2SP",
                     "07:00-20:00"},
                    {"Bolton Medical", "21 Rupert St", "Bolton", "BL3 6PY",
                     "08:00-16:00"},
                    {"Blackfriars", "1a Chapel St", "Salford", "M3 6AF",
                     "08:00-18:00"}});
}

/// Unrelated filler: colors and ratings.
inline Table FillerColors(int salt) {
  std::vector<std::vector<std::string>> rows;
  const char* colors[] = {"Red", "Blue", "Green", "Yellow", "Purple", "Teal"};
  for (int i = 0; i < 6; ++i) {
    rows.push_back({std::string(colors[(i + salt) % 6]) + " paint " + std::to_string(salt),
                    std::to_string((i * 7 + salt) % 5 + 1)});
  }
  return MakeTable("filler_colors_" + std::to_string(salt), {"Shade", "Stars"}, rows);
}

/// Unrelated filler: warehouse stock levels (numeric-heavy, no GP overlap).
inline Table FillerInventory(int salt) {
  std::vector<std::vector<std::string>> rows;
  const char* items[] = {"Widget", "Sprocket", "Gasket", "Flange", "Bearing", "Valve"};
  for (int i = 0; i < 6; ++i) {
    rows.push_back({std::string(items[(i + salt) % 6]) + "-" + std::to_string(salt * 10 + i),
                    std::to_string((i * 13 + salt * 3) % 400 + 20),
                    std::to_string((i * 5 + salt) % 9 + 1) + "." +
                        std::to_string((i + salt) % 10) + "0"});
  }
  return MakeTable("filler_inventory_" + std::to_string(salt),
                   {"SKU", "Quantity", "Unit Price"}, rows);
}

/// Unrelated filler: daily weather readings (dates and signed numerics).
inline Table FillerWeather(int salt) {
  std::vector<std::vector<std::string>> rows;
  const char* stations[] = {"Oban", "Lerwick", "Valley", "Leuchars", "Armagh", "Eskdale"};
  for (int i = 0; i < 6; ++i) {
    rows.push_back({std::string(stations[(i + salt) % 6]),
                    "2019-0" + std::to_string(i % 9 + 1) + "-1" + std::to_string(salt % 9),
                    std::to_string((i * 3 + salt) % 25 - 4),
                    std::to_string((i * 11 + salt * 7) % 90)});
  }
  return MakeTable("filler_weather_" + std::to_string(salt),
                   {"Station", "Date", "Max Temp", "Rainfall mm"}, rows);
}

/// The i-th filler table, cycling through the unrelated-domain kinds.
inline Table Filler(int i) {
  switch (i % 3) {
    case 0: return FillerColors(i);
    case 1: return FillerInventory(i);
    default: return FillerWeather(i);
  }
}

/// A small lake with the Figure 1 sources plus unrelated fillers drawn from
/// several domains (colors, inventory, weather).
inline DataLake FigureLake(int fillers = 4) {
  DataLake lake;
  lake.AddTable(FigureS1()).CheckOK();
  lake.AddTable(FigureS2()).CheckOK();
  lake.AddTable(FigureS3()).CheckOK();
  for (int i = 0; i < fillers; ++i) {
    lake.AddTable(Filler(i)).CheckOK();
  }
  return lake;
}

/// The SaveSearchResult bytes of a result: equal bytes mean the same
/// ranking, distances, pairs, alignments and target profiles.
inline std::string SearchResultBytes(const core::SearchResult& result) {
  std::string bytes;
  io::Writer w;
  w.OpenBuffer(&bytes);
  w.BeginSection(io::SectionId("SRES"));
  core::SaveSearchResult(w, result);
  w.EndSection().CheckOK();
  w.Finish().CheckOK();
  return bytes;
}

}  // namespace d3l::testutil
