// Seeded lsm-layering violation: an lsm/ file including a cluster/
// header. The storage engine must stay below the distribution layer.

#include "cluster/region.h"
#include "lsm/lsm_tree.h"

void FixtureLsmLayering() {}
