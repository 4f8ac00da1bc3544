# Checks the profile artifacts that obs_smoke's session wrote:
#   cmake -DDIR=<obs dir> -P check_obs_profile.cmake
# The manifest must list prof.json and flame.folded, the profile must
# carry the instrumented pass's named scopes at >=95% coverage, and the
# flamegraph must hold stacks nested under that pass.
if(NOT DIR)
  message(FATAL_ERROR "usage: cmake -DDIR=<obs dir> -P check_obs_profile.cmake")
endif()

foreach(f manifest.json prof.json flame.folded)
  if(NOT EXISTS "${DIR}/${f}")
    message(FATAL_ERROR "${DIR}/${f} missing")
  endif()
endforeach()

file(READ "${DIR}/manifest.json" manifest)
foreach(f prof.json flame.folded)
  string(FIND "${manifest}" "\"${f}\"" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "manifest.json does not list ${f}")
  endif()
endforeach()

file(READ "${DIR}/prof.json" prof)
foreach(scope wkld.run raizn.write)
  string(FIND "${prof}" "\"name\": \"${scope}\"" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "prof.json lacks scope ${scope}")
  endif()
endforeach()
if(NOT prof MATCHES "\"coverage\": ([0-9.]+)")
  message(FATAL_ERROR "prof.json has no coverage field")
endif()
set(coverage "${CMAKE_MATCH_1}")
if(coverage LESS 0.95)
  message(FATAL_ERROR "prof.json coverage ${coverage} < 0.95")
endif()

file(STRINGS "${DIR}/flame.folded" stacks
     REGEX "^bench\\.fig8\\.instrumented;.+ [0-9]+$")
list(LENGTH stacks n_stacks)
if(n_stacks EQUAL 0)
  message(FATAL_ERROR "flame.folded has no stacks under bench.fig8.instrumented")
endif()
message(STATUS "profile ok: coverage ${coverage}, ${n_stacks} nested stacks")
