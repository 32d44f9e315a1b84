// expect: own-header-first:0  (companion of wrong_first_include.cpp)
#pragma once

namespace vab::fixture {

double scale(double x);

}  // namespace vab::fixture
